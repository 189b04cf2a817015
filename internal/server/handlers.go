package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/ip4"
	"repro/internal/reach"
)

// Exit codes mirror cmd/batfish so scripted clients can treat the service
// and the CLI interchangeably: 0 success, 1 error, 2 usage, 3 cancelled,
// 4 degraded-but-usable. Every response carries the code in the JSON body
// and the X-Batfish-Exit-Code header.
const (
	ExitOK        = 0
	ExitError     = 1
	ExitUsage     = 2
	ExitCancelled = 3
	ExitDegraded  = 4
)

// ExitCodeHeader carries the CLI-equivalent exit code on every response.
const ExitCodeHeader = "X-Batfish-Exit-Code"

// maxBodyBytes bounds snapshot upload bodies (64 MiB).
const maxBodyBytes = 64 << 20

// apiResponse is the uniform JSON envelope for every endpoint.
type apiResponse struct {
	Snapshot    string   `json:"snapshot,omitempty"`
	Question    string   `json:"question,omitempty"`
	ExitCode    int      `json:"exit_code"`
	Attempts    int      `json:"attempts,omitempty"`
	Devices     []string `json:"devices,omitempty"`
	Warnings    int      `json:"warnings,omitempty"`
	Quarantined []string `json:"quarantined,omitempty"`
	Diags       []string `json:"diags,omitempty"`
	Snapshots   []string `json:"snapshots,omitempty"`
	Breaker     string   `json:"breaker,omitempty"`
	Deleted     bool     `json:"deleted,omitempty"`
	Error       string   `json:"error,omitempty"`
	Text        string   `json:"text,omitempty"`
}

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /snapshots", s.wrap(s.handleList))
	s.mux.HandleFunc("PUT /snapshots/{name}", s.wrap(s.handleLoad))
	s.mux.HandleFunc("POST /snapshots/{name}", s.wrap(s.handleLoad))
	s.mux.HandleFunc("DELETE /snapshots/{name}", s.wrap(s.handleDelete))
	s.mux.HandleFunc("POST /snapshots/{name}/edit", s.wrap(s.handleEdit))
	s.mux.HandleFunc("GET /snapshots/{name}/reachability", s.wrap(s.handleReachability))
	s.mux.HandleFunc("GET /snapshots/{name}/service-reachable", s.wrap(s.handleServiceReachable))
	s.mux.HandleFunc("GET /snapshots/{name}/compare", s.wrap(s.handleCompare))
	s.mux.HandleFunc("POST /snapshots/{name}/sweep", s.wrap(s.handleSweep))
	s.mux.HandleFunc("GET /snapshots/{name}/diagnostics", s.wrap(s.handleDiagnostics))
}

// wrap is the common middleware: request counting, drain shedding,
// last-resort panic recovery, and latency observation.
func (s *Server) wrap(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.m.Requests.Add(1)
		if !s.track() {
			s.m.Shed503.Add(1)
			writeShed(w, http.StatusServiceUnavailable, time.Second, "server is draining")
			return
		}
		defer s.inflight.Done()
		defer func() {
			if v := recover(); v != nil {
				s.m.PanicsRecovered.Add(1)
				s.m.ServerErrors.Add(1)
				writeJSON(w, http.StatusInternalServerError,
					apiResponse{ExitCode: ExitError, Error: fmt.Sprintf("internal error: %v", v)})
			}
			s.m.observe(time.Since(start))
		}()
		h(w, r)
	}
}

func writeJSON(w http.ResponseWriter, status int, resp apiResponse) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(ExitCodeHeader, strconv.Itoa(resp.ExitCode))
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(resp) //nolint:errcheck // client went away; nothing to do
}

// writeShed rejects with a Retry-After hint (429 or 503).
func writeShed(w http.ResponseWriter, status int, retryAfter time.Duration, reason string) {
	secs := int(retryAfter / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeJSON(w, status, apiResponse{ExitCode: ExitError, Error: reason})
}

// clientError answers a request the client got wrong (404 or 400) with
// the usage exit code, and counts it.
func (s *Server) clientError(w http.ResponseWriter, status int, msg string) {
	s.m.ClientErrors.Add(1)
	writeJSON(w, status, apiResponse{ExitCode: ExitUsage, Error: msg})
}

// outcome is how an admitted snapshot request ended; admit's finish maps
// it onto the entry's breaker and the counters.
type outcome int

const (
	outcomeFailed      outcome = iota // a panic escaped the handler
	outcomeOK                         // closes the breaker
	outcomeDegraded                   // counts against the breaker
	outcomeCancelled                  // the client's own deadline: neutral
	outcomeClientError                // a client error found after admission: neutral
)

// admit is the one admission path for snapshot requests: it resolves the
// entry named in the path, consults its breaker, then takes the request's
// deadline and an execution slot (slot). A rejection is answered here and
// ok is false. Otherwise the caller defers finish(outcomeFailed) and calls
// finish with the request's outcome before answering: the first call
// frees the slot and settles the breaker and counters, later calls do
// nothing. A panic that escapes the handler thus counts as a failure and
// still releases a half-open probe.
//
// Only a degraded run or an escaped panic counts against the breaker. The
// client's own deadline and client errors release a half-open probe
// neutrally, neither closing the breaker nor resetting a closed one's
// consecutive-failure count.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (e *snapEntry, ctx context.Context, finish func(outcome), ok bool) {
	name := r.PathValue("name")
	if e, ok = s.entry(name); !ok {
		s.clientError(w, http.StatusNotFound, "no snapshot "+name)
		return nil, nil, nil, false
	}
	th := s.cfg.BreakerThreshold
	if allowed, retryAfter := e.br.allow(th, s.cfg.BreakerCooldown); !allowed {
		s.m.BreakerRejects.Add(1)
		s.m.Shed503.Add(1)
		writeShed(w, http.StatusServiceUnavailable, retryAfter, "circuit breaker open for snapshot "+name)
		return nil, nil, nil, false
	}
	ctx, release, ok := s.slot(w, r)
	if !ok {
		// Rejected before touching the snapshot: overload or a bad
		// parameter must not close a failing snapshot's breaker.
		e.br.abort(th)
		return nil, nil, nil, false
	}
	settled := false
	finish = func(o outcome) {
		if settled {
			return
		}
		settled = true
		release()
		switch o {
		case outcomeOK:
			e.br.record(th, true)
			s.m.OK.Add(1)
		case outcomeDegraded:
			e.br.record(th, false)
			s.m.Degraded.Add(1)
		case outcomeFailed:
			e.br.record(th, false)
		case outcomeCancelled:
			e.br.abort(th)
			s.m.Cancelled.Add(1)
		case outcomeClientError:
			e.br.abort(th)
			s.m.ClientErrors.Add(1)
		}
	}
	return e, ctx, finish, true
}

// slot is admission's deadline-and-slot step: the request's analysis
// context (the server's deadline, optionally tightened by ?timeout=) and
// an execution slot from acquire. A rejection is answered here and ok is
// false; otherwise the caller calls release exactly once.
func (s *Server) slot(w http.ResponseWriter, r *http.Request) (ctx context.Context, release func(), ok bool) {
	d := s.cfg.RequestTimeout
	if v := r.URL.Query().Get("timeout"); v != "" {
		pd, err := time.ParseDuration(v)
		if err != nil || pd <= 0 {
			s.clientError(w, http.StatusBadRequest, fmt.Sprintf("bad timeout %q", v))
			return nil, nil, false
		}
		d = min(d, pd)
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	free, err := s.acquire(ctx)
	if err != nil {
		cancel()
		if se, shed := err.(*shedError); shed {
			writeShed(w, se.Status, se.RetryAfter, se.Reason)
		} else { // the request context expired while queued
			s.m.Cancelled.Add(1)
			writeJSON(w, http.StatusGatewayTimeout,
				apiResponse{ExitCode: ExitCancelled, Error: "deadline expired while queued"})
		}
		return nil, nil, false
	}
	return ctx, func() { free(); cancel() }, true
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ready")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.Metrics()) //nolint:errcheck
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, apiResponse{ExitCode: ExitOK, Snapshots: s.names()})
}

// loadBody is the PUT /snapshots/{name} request body.
type loadBody struct {
	Configs map[string]string `json:"configs"`
}

func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var body loadBody
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&body); err != nil {
		s.clientError(w, http.StatusBadRequest, "bad body: "+err.Error())
		return
	}
	if len(body.Configs) == 0 {
		s.clientError(w, http.StatusBadRequest, "no configs in body")
		return
	}
	ctx, release, ok := s.slot(w, r)
	if !ok {
		return
	}
	defer release()

	faults.Fire("server", "load")
	snap, ok := s.load(ctx, body.Configs)
	if !ok {
		writeJSON(w, http.StatusGatewayTimeout, apiResponse{
			Snapshot: name, ExitCode: ExitCancelled,
			Error: "snapshot load cancelled by deadline", Diags: diagStrings(snap.Diags())})
		return
	}
	resp := s.published(name, snap)
	s.putEntry(&snapEntry{name: name, snap: snap})
	writeJSON(w, http.StatusOK, resp)
}

// load parses configs into a snapshot ready to publish. ok is false when
// ctx cancelled the load (counted).
func (s *Server) load(ctx context.Context, configs map[string]string) (snap *core.Snapshot, ok bool) {
	snap = core.LoadTextWithContext(ctx, s.pl, configs)
	if snap.Cancelled() {
		s.m.Cancelled.Add(1)
		return snap, false
	}
	return snap.WithContext(nil), true
}

// published describes a snapshot about to be published by a load or an
// edit, and counts the outcome. Callers build it before putEntry: once the
// entry is visible, another request may mutate the snapshot under anMu.
func (s *Server) published(name string, snap *core.Snapshot) apiResponse {
	resp := apiResponse{
		Snapshot:    name,
		ExitCode:    ExitOK,
		Devices:     snap.Net.DeviceNames(),
		Warnings:    len(snap.Warnings),
		Quarantined: snap.Quarantined(),
		Diags:       diagStrings(snap.Diags()),
	}
	if len(resp.Diags) > 0 {
		resp.ExitCode = ExitDegraded
		s.m.Degraded.Add(1)
	} else {
		s.m.OK.Add(1)
	}
	return resp
}

// editBody is the POST /snapshots/{name}/edit request body.
type editBody struct {
	As      string            `json:"as"`
	Changes map[string]string `json:"changes"`
}

// handleEdit publishes an edit of a snapshot under a new name. It takes a
// deadline and a slot but no breaker: the edit builds a new snapshot
// rather than questioning the base.
func (s *Server) handleEdit(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	e, ok := s.entry(name)
	if !ok {
		s.clientError(w, http.StatusNotFound, "no snapshot "+name)
		return
	}
	var body editBody
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&body); err != nil {
		s.clientError(w, http.StatusBadRequest, "bad body: "+err.Error())
		return
	}
	if body.As == "" || body.As == name {
		s.clientError(w, http.StatusBadRequest, `"as" must name a distinct snapshot`)
		return
	}
	_, release, ok := s.slot(w, r)
	if !ok {
		return
	}
	defer release()

	faults.Fire("server", "edit")
	// The base resolution and the overlay build both touch snapshot
	// internals that concurrent questions mutate, so they run under anMu,
	// and so does the response.
	s.anMu.Lock()
	ns := s.snapshotFor(e).Edit(body.Changes)
	resp := s.published(body.As, ns)
	s.anMu.Unlock()
	s.putEntry(&snapEntry{name: body.As, snap: ns})
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !s.deleteEntry(name) {
		s.clientError(w, http.StatusNotFound, "no snapshot "+name)
		return
	}
	writeJSON(w, http.StatusOK, apiResponse{Snapshot: name, ExitCode: ExitOK, Deleted: true})
}

func (s *Server) handleDiagnostics(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	e, ok := s.entry(name)
	if !ok {
		s.clientError(w, http.StatusNotFound, "no snapshot "+name)
		return
	}
	s.anMu.Lock()
	snap := s.snapshotFor(e)
	quarantined := snap.Quarantined()
	diags := diagStrings(snap.Diags())
	s.anMu.Unlock()
	state, _ := e.br.snapshotState()
	resp := apiResponse{
		Snapshot:    name,
		ExitCode:    ExitOK,
		Quarantined: quarantined,
		Diags:       diags,
		Breaker:     state,
	}
	if len(resp.Diags) > 0 {
		resp.ExitCode = ExitDegraded
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleReachability(w http.ResponseWriter, r *http.Request) {
	params := core.ReachabilityParams{}
	q := r.URL.Query()
	srcs, err := parseSourceLocs(q["src"])
	if err != nil {
		s.clientError(w, http.StatusBadRequest, err.Error())
		return
	}
	params.Sources = srcs
	for _, v := range q["dst"] {
		p, err := ip4.ParsePrefix(v)
		if err != nil {
			s.clientError(w, http.StatusBadRequest, "bad dst: "+err.Error())
			return
		}
		params.DstIPs = append(params.DstIPs, p)
	}
	s.serveQuestion(w, r, "reachability", func(snap *core.Snapshot) string {
		return RenderFlows(snap.Reachability(params))
	})
}

func (s *Server) handleServiceReachable(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	spec := core.ServiceSpec{}
	for _, v := range q["dst"] {
		p, err := ip4.ParsePrefix(v)
		if err != nil {
			s.clientError(w, http.StatusBadRequest, "bad dst: "+err.Error())
			return
		}
		spec.DstIPs = append(spec.DstIPs, p)
	}
	if len(spec.DstIPs) == 0 {
		s.clientError(w, http.StatusBadRequest, "at least one dst=CIDR is required")
		return
	}
	if v := q.Get("port"); v != "" {
		p, err := strconv.ParseUint(v, 10, 16)
		if err != nil {
			s.clientError(w, http.StatusBadRequest, "bad port: "+err.Error())
			return
		}
		spec.Port = uint16(p)
	}
	if v := q.Get("proto"); v != "" {
		p, err := strconv.ParseUint(v, 10, 8)
		if err != nil {
			s.clientError(w, http.StatusBadRequest, "bad proto: "+err.Error())
			return
		}
		spec.Proto = uint8(p)
	}
	clients, err := parseSourceLocs(q["client"])
	if err != nil {
		s.clientError(w, http.StatusBadRequest, err.Error())
		return
	}
	spec.Clients = clients
	s.serveQuestion(w, r, "service-reachable", func(snap *core.Snapshot) string {
		return RenderService(snap.ServiceReachable(spec))
	})
}

func (s *Server) handleCompare(w http.ResponseWriter, r *http.Request) {
	withName := r.URL.Query().Get("with")
	if withName == "" {
		s.clientError(w, http.StatusBadRequest, "with=SNAPSHOT is required")
		return
	}
	we, ok := s.entry(withName)
	if !ok {
		s.clientError(w, http.StatusNotFound, "no snapshot "+withName)
		return
	}
	s.serveQuestion(w, r, "compare", func(snap *core.Snapshot) string {
		// Resolve the candidate inside the question body so its (possible)
		// rebuild and the CompareWith mutations of its memoized artifacts
		// both happen under anMu.
		return RenderDiffs(snap.CompareWith(s.snapshotFor(we)))
	})
}

// serveQuestion is the shared question path: admit, run the question
// (with retry) under the request deadline, settle the outcome, and map
// the containment result onto HTTP + exit codes.
func (s *Server) serveQuestion(w http.ResponseWriter, r *http.Request, q string, fn func(*core.Snapshot) string) {
	e, ctx, finish, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer finish(outcomeFailed)
	var text string
	qr := s.runQuestion(ctx, e, q, func(snap *core.Snapshot) {
		faults.Fire("server", q)
		text = fn(snap)
	})
	resp := apiResponse{Snapshot: e.name, Question: q, Attempts: qr.attempts,
		Diags: diagStrings(qr.diags), Text: text}
	status := http.StatusOK
	switch {
	case qr.cancelled:
		finish(outcomeCancelled)
		status, resp.ExitCode, resp.Error = http.StatusGatewayTimeout, ExitCancelled, "question cancelled by deadline"
	case len(qr.diags) > 0:
		finish(outcomeDegraded)
		resp.ExitCode = ExitDegraded
	default:
		finish(outcomeOK)
	}
	writeJSON(w, status, resp)
}

// parseSourceLocs parses repeated "device/iface" params. Every source of
// the forwarding graph is an interface, so a value without both halves
// is refused rather than answered with no row.
func parseSourceLocs(vals []string) ([]reach.SourceLoc, error) {
	var out []reach.SourceLoc
	for _, v := range vals {
		dev, iface, _ := strings.Cut(v, "/")
		if dev == "" || iface == "" {
			return nil, fmt.Errorf("bad source location %q (want device/iface)", v)
		}
		out = append(out, reach.SourceLoc{Device: dev, Iface: iface})
	}
	return out, nil
}
