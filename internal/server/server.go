// Package server is the long-running analysis service: batfishd's engine.
// It manages named configuration snapshots and answers questions over
// HTTP, hardened end to end against the failure modes a shared service
// meets that a CLI run does not — overload, slow clients, transient
// infrastructure faults, crashes mid-write, and repeatedly failing
// snapshots.
//
// Every snapshot request takes one path. admit resolves the entry,
// consults its breaker, and takes the request's deadline and execution
// slot; the handler defers the finish func admit returns, which is the
// only place an outcome reaches the breaker and the counters, so even a
// panic escaping the handler settles a half-open probe. Each try of a
// question — and sweep planning, tried once — is one attempt: an
// already-expired deadline answered as cancelled before anything runs,
// else the request context bound to the snapshot, the body run under
// diag.Capture, the context unbound, and a poisoned snapshot marked
// stale. Binding the snapshot is the only context step: every stage and
// fixed point takes the snapshot's context as an argument, so the
// analyses the pipeline's store shares between snapshots and requests
// carry no request's deadline. Loads and edits take only admission's
// deadline-and-slot step.
//
// The hardening layers, outermost first:
//
//   - Admission control: a semaphore bounds concurrently executing
//     requests and a bounded, deadline-aware wait queue absorbs bursts.
//     When the queue is full or the wait budget expires the request is
//     shed immediately with 429 (Too Many Requests) or, while draining,
//     503 — both with Retry-After — rather than queued without bound.
//   - Per-request deadlines: every request runs under a context with a
//     deadline (server default, optionally tightened per request), which
//     propagates through the snapshot's context into parse, simulation,
//     graph construction, and the BDD fixed points — a compare's into
//     the candidate snapshot's stages and passes too.
//   - Retry with backoff: transient failures (recovered panics) are
//     retried against a freshly rebuilt snapshot with jittered
//     exponential backoff; deterministic degradation (quarantines,
//     budget trips) is returned immediately.
//   - Circuit breaker: a snapshot that degrades repeatedly trips its
//     breaker, shedding further questions with 503 + Retry-After until a
//     cooldown passes; a half-open probe then decides recovery.
//   - Graceful drain: SIGTERM (via Drain) flips readiness, sheds new
//     work, and waits for in-flight requests to finish.
//
// Underneath, the pipeline can be given a persistent diskcache tier so a
// restarted server rehydrates data-plane artifacts instead of simulating
// again (warm restart); parsing re-runs, as it costs less than a decode.
//
// Concurrency contract: the pipeline's shared BDD factory is
// unsynchronized (see internal/pipeline), so every request that builds
// graphs, analyses, or runs BDD queries serializes on one mutex. The
// admission semaphore therefore bounds queueing and memory, while anMu
// preserves correctness; parse and simulation still overlap freely.
package server

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/diskcache"
	"repro/internal/pipeline"
)

// Config tunes a Server. Zero values take the documented defaults.
type Config struct {
	// MaxConcurrent bounds requests executing at once (default 4).
	MaxConcurrent int
	// MaxQueue bounds requests waiting for an execution slot; arrivals
	// beyond it are shed with 429 (default 2*MaxConcurrent).
	MaxQueue int
	// QueueWait bounds how long a request may wait for a slot before
	// being shed with 429 (default 5s).
	QueueWait time.Duration
	// RequestTimeout is the per-request deadline propagated into the
	// analysis context (default 60s). Clients may tighten (never extend)
	// it with a ?timeout= query parameter.
	RequestTimeout time.Duration
	// Retries is how many times a transiently failed question is retried
	// against a rebuilt snapshot (default 2; negative disables).
	Retries int
	// RetryBase is the first retry's backoff; later retries double it,
	// each with ±50% jitter (default 25ms).
	RetryBase time.Duration
	// BreakerThreshold trips a snapshot's circuit breaker after this many
	// consecutive service-quality failures (default 3; negative disables).
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker rejects before
	// half-opening for a probe (default 5s).
	BreakerCooldown time.Duration
	// CacheDir, when set, opens a persistent diskcache tier there so
	// data-plane artifacts survive restarts.
	CacheDir string
	// CacheMaxBytes bounds the disk tier (diskcache defaults apply).
	CacheMaxBytes int64
	// StoreCapacity bounds the in-memory artifact store (pipeline
	// default when 0).
	StoreCapacity int
	// Seed makes retry jitter deterministic in tests (time-seeded when 0).
	Seed int64
}

func (c *Config) defaults() {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 4
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 2 * c.MaxConcurrent
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 5 * time.Second
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.Retries == 0 {
		c.Retries = 2
	}
	if c.Retries < 0 {
		c.Retries = 0
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 25 * time.Millisecond
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
}

// snapEntry is one named snapshot the server manages: its live
// *core.Snapshot and its breaker. A snapshot poisoned by a request
// (cancelled mid-stage, or carrying question-stage diagnostics from a
// transient fault) is marked stale and rebuilt from its own sources on
// next use; rebuilds are cheap because every clean artifact is still in
// the pipeline's store or on disk.
type snapEntry struct {
	name string

	mu    sync.Mutex
	snap  *core.Snapshot // the live snapshot
	stale bool           // snap was poisoned; rebuild before use

	br breaker
}

// poison marks the live snapshot stale if it is still the given one, so
// a concurrent request that already rebuilt is not clobbered.
func (e *snapEntry) poison(old *core.Snapshot) {
	e.mu.Lock()
	if e.snap == old {
		e.stale = true
	}
	e.mu.Unlock()
}

// Server is the analysis service. Construct with New; it is safe for
// concurrent use by multiple HTTP requests.
type Server struct {
	cfg  Config
	pl   *pipeline.Pipeline
	disk *diskcache.Cache
	mux  *http.ServeMux

	mu    sync.Mutex
	snaps map[string]*snapEntry

	// anMu serializes all BDD-touching work (graph/analysis builds and
	// queries) across snapshots, per the pipeline's shared-factory
	// contract.
	anMu sync.Mutex

	sem      chan struct{}
	queued   atomic.Int64
	cur      atomic.Int64
	draining atomic.Bool
	drainCh  chan struct{}
	// trackMu orders track's Add against Drain's flag flip: an Add only
	// happens after observing draining=false under the lock, so every
	// Add-from-zero happens-before Drain's Wait (the WaitGroup contract).
	trackMu  sync.Mutex
	inflight sync.WaitGroup
	started  time.Time

	rndMu sync.Mutex
	rnd   *rand.Rand

	// clusterMetrics, when set (SetClusterMetrics), feeds the Cluster
	// field of Metrics snapshots. Guarded by mu.
	clusterMetrics func() any

	m counters
}

// New builds a Server, opening the persistent cache tier when configured.
func New(cfg Config) (*Server, error) {
	cfg.defaults()
	s := &Server{
		cfg:     cfg,
		snaps:   make(map[string]*snapEntry),
		sem:     make(chan struct{}, cfg.MaxConcurrent),
		drainCh: make(chan struct{}),
		started: time.Now(),
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	s.rnd = rand.New(rand.NewSource(seed))
	if cfg.CacheDir != "" {
		disk, err := diskcache.Open(cfg.CacheDir, diskcache.Options{MaxBytes: cfg.CacheMaxBytes})
		if err != nil {
			return nil, fmt.Errorf("server: open cache: %w", err)
		}
		s.disk = disk
	}
	s.pl = pipeline.New(pipeline.Config{StoreCapacity: cfg.StoreCapacity, Disk: s.disk})
	s.mux = http.NewServeMux()
	s.routes()
	return s, nil
}

// Handler returns the HTTP handler serving the full API.
func (s *Server) Handler() http.Handler { return s.mux }

// Pipeline exposes the server's pipeline (tests and metrics).
func (s *Server) Pipeline() *pipeline.Pipeline { return s.pl }

// Draining reports whether the server has begun shedding new work.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain flips readiness, sheds queued and new requests with 503, and
// waits for in-flight requests to complete (bounded by ctx). It is the
// SIGTERM path: admitted work always finishes; nothing new starts.
func (s *Server) Drain(ctx context.Context) error {
	s.trackMu.Lock()
	if s.draining.CompareAndSwap(false, true) {
		close(s.drainCh)
	}
	s.trackMu.Unlock()
	done := make(chan struct{})
	//gblint:ignore panic-safe body is WaitGroup.Wait plus close; a panic here means broken in-flight accounting and must crash loudly, not be contained
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: drain: %d request(s) still in flight: %w",
			s.cur.Load(), ctx.Err())
	}
}

// track registers an in-flight request; it returns false (and does not
// track) once draining has begun.
func (s *Server) track() bool {
	s.trackMu.Lock()
	defer s.trackMu.Unlock()
	if s.draining.Load() {
		return false
	}
	s.inflight.Add(1)
	return true
}

// shedError is an admission-control rejection: the HTTP status and
// Retry-After the handler writes.
type shedError struct {
	Status     int           // 429 or 503
	RetryAfter time.Duration // suggested client backoff
	Reason     string
}

func (e *shedError) Error() string { return e.Reason }

// acquire takes an execution slot, waiting in the bounded queue. On
// rejection it returns a shedError carrying the HTTP status and
// Retry-After. The release func must be called exactly once when non-nil.
func (s *Server) acquire(ctx context.Context) (release func(), err error) {
	if s.draining.Load() {
		s.m.Shed503.Add(1)
		return nil, &shedError{Status: http.StatusServiceUnavailable,
			RetryAfter: time.Second, Reason: "server is draining"}
	}
	release = func() {
		s.cur.Add(-1)
		<-s.sem
	}
	// Fast path: a free slot means the request never waits and does not
	// count against the queue bound.
	select {
	case s.sem <- struct{}{}:
		maxInt64(&s.m.peakConc, s.cur.Add(1))
		return release, nil
	default:
	}
	// All slots are busy, so this request is a genuine waiter: queued
	// counts exactly those, and the shed bound is exactly MaxQueue.
	q := s.queued.Add(1)
	maxInt64(&s.m.peakQueue, q)
	if q > int64(s.cfg.MaxQueue) {
		s.queued.Add(-1)
		s.m.Shed429.Add(1)
		return nil, &shedError{Status: http.StatusTooManyRequests,
			RetryAfter: s.cfg.QueueWait, Reason: "admission queue is full"}
	}
	timer := time.NewTimer(s.cfg.QueueWait)
	defer timer.Stop()
	select {
	case s.sem <- struct{}{}:
		s.queued.Add(-1)
		maxInt64(&s.m.peakConc, s.cur.Add(1))
		return release, nil
	case <-timer.C:
		s.queued.Add(-1)
		s.m.Shed429.Add(1)
		return nil, &shedError{Status: http.StatusTooManyRequests,
			RetryAfter: s.cfg.QueueWait, Reason: "timed out waiting for an execution slot"}
	case <-s.drainCh:
		s.queued.Add(-1)
		s.m.Shed503.Add(1)
		return nil, &shedError{Status: http.StatusServiceUnavailable,
			RetryAfter: time.Second, Reason: "server is draining"}
	case <-ctx.Done():
		s.queued.Add(-1)
		return nil, ctx.Err()
	}
}

// maxInt64 raises the atomic to at least v.
func maxInt64(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// entry looks up a snapshot by name.
func (s *Server) entry(name string) (*snapEntry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.snaps[name]
	return e, ok
}

// putEntry installs (or replaces) a named snapshot entry.
func (s *Server) putEntry(e *snapEntry) {
	s.mu.Lock()
	s.snaps[e.name] = e
	s.mu.Unlock()
}

// deleteEntry removes a named snapshot; it reports whether it existed.
func (s *Server) deleteEntry(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.snaps[name]
	delete(s.snaps, name)
	return ok
}

// names returns the sorted snapshot names.
func (s *Server) names() []string {
	s.mu.Lock()
	out := make([]string, 0, len(s.snaps))
	for n := range s.snaps {
		out = append(out, n)
	}
	s.mu.Unlock()
	sort.Strings(out)
	return out
}

// snapshotFor returns the entry's live snapshot, first rebuilding it from
// its own SourceTexts when a past request poisoned it (a cancelled stage
// leaves a partial artifact on the snapshot; question-stage diagnostics
// accumulate). A rebuild re-parses through the pipeline, so every clean
// cached artifact — in memory or on disk — is reused; only what the
// cancelled stages left partial recomputes.
//
// Callers must hold anMu: both the Cancelled fast path and a rebuild
// read/write snapshot internals that questions mutate, and a published
// snapshot may be touched by any request. Lock order is anMu → e.mu.
func (s *Server) snapshotFor(e *snapEntry) *core.Snapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stale || e.snap.Cancelled() {
		e.snap, e.stale = core.LoadTextWith(s.pl, e.snap.SourceTexts()), false
	}
	return e.snap
}

// transient reports whether the diagnostics describe a failure worth
// retrying: recovered panics and contained errors may be environmental
// (fault injection models them), while quarantines, budget trips,
// non-convergence, and cancellation are deterministic or client-owned.
func transient(ds []diag.Diagnostic) bool {
	for _, d := range ds {
		switch d.Kind {
		case diag.KindPanic, diag.KindError:
			return true
		}
	}
	return false
}

// backoff sleeps the jittered exponential delay for retry attempt n
// (1-based), bounded by ctx. Returns false if ctx expired first.
func (s *Server) backoff(ctx context.Context, n int) bool {
	d := s.cfg.RetryBase << (n - 1)
	s.rndMu.Lock()
	jit := time.Duration(s.rnd.Int63n(int64(d) + 1))
	s.rndMu.Unlock()
	d = d/2 + jit // uniform in [d/2, 3d/2]
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// qresult is the containment outcome of one question run.
type qresult struct {
	attempts  int
	diags     []diag.Diagnostic // last attempt's new diagnostics
	cancelled bool              // the snapshot observed ctx expiry
}

// runQuestion runs a question with transient-failure retry: each try is
// one attempt on the entry's live snapshot (rebuilt when the try before
// poisoned it), with jittered exponential backoff between tries.
func (s *Server) runQuestion(ctx context.Context, e *snapEntry, q string, fn func(*core.Snapshot)) qresult {
	for n := 1; ; n++ {
		diags, cancelled := s.attempt(ctx, e, q, fn)
		res := qresult{attempts: n, diags: diags, cancelled: cancelled}
		if cancelled || len(diags) == 0 || ctx.Err() != nil ||
			!transient(diags) || n > s.cfg.Retries {
			return res
		}
		s.m.Retries.Add(1)
		if !s.backoff(ctx, n) {
			res.cancelled = true
			return res
		}
	}
}

// attempt runs fn once against the entry's live snapshot under the BDD
// mutex, with the request context bound to the snapshot for the duration
// of the call. It returns the diagnostics the run added (a recovered
// panic among them) and whether the snapshot observed ctx expiry; a run
// that did (or newly degraded) marks the snapshot stale. A deadline that
// has already expired is reported before fn runs, so a warm snapshot
// whose answers are memoized answers it as a cold one does.
func (s *Server) attempt(ctx context.Context, e *snapEntry, q string, fn func(*core.Snapshot)) (diags []diag.Diagnostic, cancelled bool) {
	if ctx.Err() != nil {
		return nil, true
	}
	s.anMu.Lock()
	snap := s.snapshotFor(e)
	before := len(snap.Diags())
	snap.WithContext(ctx)
	panicDiag := diag.Capture(diag.StageQuestion, q, func() { fn(snap) })
	snap.WithContext(nil)
	cancelled = snap.Cancelled()
	diags = snap.Diags()[before:]
	s.anMu.Unlock()

	if panicDiag != nil {
		s.m.PanicsRecovered.Add(1)
		diags = append(diags, *panicDiag)
	}
	if cancelled || len(diags) > 0 {
		e.poison(snap)
	}
	return diags, cancelled
}
