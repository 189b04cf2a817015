package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/ip4"
	"repro/internal/pipeline"
	"repro/internal/reach"
	"repro/internal/server"
)

// spanHeader carries the client's transport span id to the handler wrapper.
const spanHeader = "X-Perfbench-Span"

// serviceMix drives two closed-loop HTTP clients against an in-process
// batfishd engine (server.New behind httptest on loopback) whose pipeline
// has a disk tier. 90% of ops are reads — all-pairs and scoped
// reachability, service-reachable, diagnostics — and 10% are writes: POST
// edit as a new snapshot, GET compare, DELETE the candidate. The memory
// tier is sized below the write pool's working set, so repeated candidates
// come back from the disk tier.
type serviceMix struct {
	cfg   runConfig
	tr    *tracer
	texts map[string]string

	dirs    []string
	servers []*httptest.Server
	srv     *server.Server
	ts      *httptest.Server

	reads  [][]readReq // by kind: allPairs, scoped, service, diagnostics
	writes []writeReq
	rngs   []*rand.Rand // one per client
	blocks [][]int      // each client's current block of op kinds
	before server.Metrics
}

type readReq struct {
	path string
	want string // the in-process rendering of the same question
}

type writeReq struct {
	tor, text string
	want      string // the cold recompute's compare rendering
}

// apiResponse is the part of the server's JSON envelope the checks read.
type apiResponse struct {
	ExitCode int      `json:"exit_code"`
	Diags    []string `json:"diags"`
	Deleted  bool     `json:"deleted"`
	Text     string   `json:"text"`
}

// The op kinds: the read kinds index reads.
const (
	allPairs = iota
	scoped
	service
	diagnostics
	write
)

// opBlock is ten ops' kinds. Each client runs its ops in blocks whose order
// its seeded generator shuffles, so every run has the same shares — 30%
// all-pairs, 30% scoped, 20% service-reachable, 10% diagnostics, 10% writes
// — and the seed decides only which requests run and in what order. With
// the shares fixed, the kinds' unequal costs do not move the CPU time per
// op from run to run.
var opBlock = []int{allPairs, allPairs, allPairs, scoped, scoped, scoped, service, service, diagnostics, write}

func (w *serviceMix) clients() int { return 2 }

// setup starts a fresh server over a fresh cache directory, loads the
// snapshot and waits for the first answer. The last repetition's server is
// the one measured; reference closes the earlier ones.
func (w *serviceMix) setup() error {
	if w.texts == nil {
		if w.cfg.tiny {
			w.texts = fabric("sv", 2, 2, 2, 2)
		} else {
			w.texts = fabric("sv", 2, 4, 2, 6)
		}
	}
	dir := filepath.Join(w.cfg.outDir, fmt.Sprintf("perfbench-svc-cache-%d-%d", os.Getpid(), len(w.dirs)))
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	w.dirs = append(w.dirs, dir)
	srv, err := server.New(server.Config{CacheDir: dir, Seed: w.cfg.seed, MaxConcurrent: 2, StoreCapacity: 48})
	if err != nil {
		return err
	}
	h := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		sp := w.tr.lookup(r.Header.Get(spanHeader)).child(r.Method+" "+r.URL.Path, "server.handler")
		h.ServeHTTP(rw, r)
		sp.end()
	}))
	w.servers = append(w.servers, ts)
	w.srv, w.ts = srv, ts
	body, err := json.Marshal(map[string]any{"configs": w.texts})
	if err != nil {
		return err
	}
	for _, req := range []struct {
		method, path string
		body         []byte
	}{{"POST", "/snapshots/prod", body}, {"GET", "/snapshots/prod/reachability", nil}} {
		status, raw, err := w.call(nil, req.method, req.path, req.body)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("%s %s: status %d: %s", req.method, req.path, status, raw)
		}
	}
	return nil
}

// reference draws the seeded request pools and renders each question's
// answer in process, on a separate pipeline; write answers come from a
// caching-disabled cold recompute.
func (w *serviceMix) reference() error {
	rng := rand.New(rand.NewSource(w.cfg.seed))
	ref := core.LoadTextWith(pipeline.New(pipeline.Config{}), w.texts)
	tors := torsOf(w.texts)
	type host struct {
		loc reach.SourceLoc
		p   ip4.Prefix
	}
	hosts := make([]host, len(tors))
	for i, t := range tors {
		iface, p, err := hostSubnet(ref.Net, t)
		if err != nil {
			return err
		}
		hosts[i] = host{reach.SourceLoc{Device: t, Iface: iface}, p}
	}

	w.reads = make([][]readReq, write)
	w.reads[allPairs] = []readReq{{path: "/snapshots/prod/reachability",
		want: server.RenderFlows(ref.Reachability(core.ReachabilityParams{}))}}
	for k := 0; k < 8; k++ {
		src, dst := hosts[rng.Intn(len(hosts))], hosts[rng.Intn(len(hosts))]
		q := url.Values{"src": {src.loc.Device + "/" + src.loc.Iface}, "dst": {dst.p.String()}}
		w.reads[scoped] = append(w.reads[scoped], readReq{path: "/snapshots/prod/reachability?" + q.Encode(),
			want: server.RenderFlows(ref.Reachability(core.ReachabilityParams{
				Sources: []reach.SourceLoc{src.loc}, DstIPs: []ip4.Prefix{dst.p}}))})
	}
	for k := 0; k < 4; k++ {
		dst := hosts[rng.Intn(len(hosts))]
		port := []uint16{22, 80, 443}[rng.Intn(3)]
		q := url.Values{"dst": {dst.p.String()}, "port": {fmt.Sprint(port)}}
		w.reads[service] = append(w.reads[service], readReq{path: "/snapshots/prod/service-reachable?" + q.Encode(),
			want: server.RenderService(ref.ServiceReachable(core.ServiceSpec{DstIPs: []ip4.Prefix{dst.p}, Port: port}))})
	}
	w.reads[diagnostics] = []readReq{{path: "/snapshots/prod/diagnostics"}}
	if ref.Degraded() {
		return fmt.Errorf("reference snapshot degraded: %v", ref.Diags())
	}

	cold := core.LoadTextWith(pipeline.Disabled(), w.texts)
	for _, tor := range pick(rng, tors, 6) {
		text, err := nullRouteEdit(w.texts, ref.Net, tor, 0)
		if err != nil {
			return err
		}
		diffs := cold.CompareWith(core.LoadTextWith(pipeline.Disabled(), with(w.texts, tor, text)))
		if len(diffs) == 0 {
			return fmt.Errorf("cold edit of %s changes no flow", tor)
		}
		w.writes = append(w.writes, writeReq{tor: tor, text: text, want: server.RenderDiffs(diffs)})
	}
	for c := 0; c < w.clients(); c++ {
		w.rngs = append(w.rngs, rand.New(rand.NewSource(w.cfg.seed*1000+int64(c))))
		w.blocks = append(w.blocks, nil)
	}
	// Only the last set-up's server is measured; the others go now, so
	// their snapshots do not count in the measured phase's memory.
	if err := w.closeServers(len(w.servers) - 1); err != nil {
		return err
	}
	w.before = w.srv.Metrics()
	return nil
}

// call sends one request inside a server.transport span and returns the
// status and raw body.
func (w *serviceMix) call(root *span, method, path string, body []byte) (int, []byte, error) {
	sp := root.child(method+" "+path, "server.transport")
	defer sp.end()
	req, err := http.NewRequest(method, w.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if sp != nil {
		req.Header.Set(spanHeader, sp.id())
	}
	resp, err := w.ts.Client().Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// decodeOK checks a response's status and exit code and decodes it.
func decodeOK(what string, status int, raw []byte) (apiResponse, error) {
	var r apiResponse
	if status != http.StatusOK {
		return r, fmt.Errorf("%s: status %d: %s", what, status, raw)
	}
	if err := json.Unmarshal(raw, &r); err != nil {
		return r, fmt.Errorf("%s: %w", what, err)
	}
	if r.ExitCode != 0 || len(r.Diags) > 0 {
		return r, fmt.Errorf("%s: exit code %d, diags %v", what, r.ExitCode, r.Diags)
	}
	return r, nil
}

func (w *serviceMix) op(root *span, c, i int) (string, func() error, error) {
	rng := w.rngs[c]
	if i%len(opBlock) == 0 {
		w.blocks[c] = w.blocks[c][:0]
		for _, j := range rng.Perm(len(opBlock)) {
			w.blocks[c] = append(w.blocks[c], opBlock[j])
		}
	}
	kind := w.blocks[c][i%len(opBlock)]
	if kind == write {
		wr := w.writes[rng.Intn(len(w.writes))]
		name := fmt.Sprintf("cand-%d-%d", c, i)
		body, err := json.Marshal(map[string]any{"as": name, "changes": map[string]string{wr.tor: wr.text}})
		if err != nil {
			return "write", nil, err
		}
		type reply struct {
			what   string
			status int
			raw    []byte
		}
		var replies []reply
		for _, req := range []struct {
			method, path string
			body         []byte
		}{
			{"POST", "/snapshots/prod/edit", body},
			{"GET", "/snapshots/prod/compare?with=" + url.QueryEscape(name), nil},
			{"DELETE", "/snapshots/" + name, nil},
		} {
			status, raw, err := w.call(root, req.method, req.path, req.body)
			if err != nil {
				return "write", nil, err
			}
			replies = append(replies, reply{req.method + " " + req.path, status, raw})
		}
		return "write", func() error {
			var got []apiResponse
			for _, r := range replies {
				a, err := decodeOK(r.what, r.status, r.raw)
				if err != nil {
					return err
				}
				got = append(got, a)
			}
			if got[1].Text != wr.want {
				return fmt.Errorf("compare after editing %s differs from the cold recompute", wr.tor)
			}
			if !got[2].Deleted {
				return fmt.Errorf("candidate %s not deleted", name)
			}
			return nil
		}, nil
	}

	rd := w.reads[kind][rng.Intn(len(w.reads[kind]))]
	status, raw, err := w.call(root, "GET", rd.path, nil)
	if err != nil {
		return "question", nil, err
	}
	return "question", func() error {
		r, err := decodeOK("GET "+rd.path, status, raw)
		if err != nil {
			return err
		}
		if r.Text != rd.want {
			return fmt.Errorf("GET %s: answer differs from the in-process rendering", rd.path)
		}
		return nil
	}, nil
}

func (w *serviceMix) finish() error { return w.closeServers(len(w.servers)) }

// closeServers stops the first n set-up servers and removes their cache
// directories. It clears their slots too: the slices below keep the same
// backing arrays, and a closed server's handler still references its
// snapshots.
func (w *serviceMix) closeServers(n int) error {
	var err error
	for i := 0; i < n; i++ {
		w.servers[i].Close()
		if e := os.RemoveAll(w.dirs[i]); e != nil && err == nil {
			err = e
		}
		w.servers[i] = nil
	}
	w.servers, w.dirs = w.servers[n:], w.dirs[n:]
	return err
}

func (w *serviceMix) layers(ops int) map[string]float64 {
	m, b := w.srv.Metrics(), w.before
	hits, misses := m.Pipeline.Store.Hits-b.Pipeline.Store.Hits, m.Pipeline.Store.Misses-b.Pipeline.Store.Misses
	dHits, dMisses := m.Disk.Hits-b.Disk.Hits, m.Disk.Misses-b.Disk.Misses
	return map[string]float64{
		"pipeline.hit_ratio":   safeDiv(float64(hits), float64(hits+misses)),
		"pipeline.evictions":   perOp(float64(m.Pipeline.Store.Evictions-b.Pipeline.Store.Evictions), ops),
		"diskcache.hit_ratio":  safeDiv(float64(dHits), float64(dHits+dMisses)),
		"diskcache.puts":       perOp(float64(m.Disk.Puts-b.Disk.Puts), ops),
		"diskcache.put_errors": float64(m.Disk.PutErrors - b.Disk.PutErrors),
		"server.shed":          float64(m.Shed429 + m.Shed503 - b.Shed429 - b.Shed503),
		"server.retries":       float64(m.Retries - b.Retries),
		"server.peak_queued":   float64(m.PeakQueued),
	}
}
