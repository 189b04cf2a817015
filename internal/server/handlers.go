package server

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
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

// reqContext derives the request's analysis context: the server's
// deadline, optionally tightened by ?timeout=.
func (s *Server) reqContext(r *http.Request) (context.Context, context.CancelFunc, error) {
	d := s.cfg.RequestTimeout
	if v := r.URL.Query().Get("timeout"); v != "" {
		pd, err := time.ParseDuration(v)
		if err != nil || pd <= 0 {
			return nil, nil, fmt.Errorf("bad timeout %q", v)
		}
		if pd < d {
			d = pd
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	return ctx, cancel, nil
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
		s.m.ClientErrors.Add(1)
		writeJSON(w, http.StatusBadRequest, apiResponse{ExitCode: ExitUsage, Error: "bad body: " + err.Error()})
		return
	}
	if len(body.Configs) == 0 {
		s.m.ClientErrors.Add(1)
		writeJSON(w, http.StatusBadRequest, apiResponse{ExitCode: ExitUsage, Error: "no configs in body"})
		return
	}
	ctx, cancel, err := s.reqContext(r)
	if err != nil {
		s.m.ClientErrors.Add(1)
		writeJSON(w, http.StatusBadRequest, apiResponse{ExitCode: ExitUsage, Error: err.Error()})
		return
	}
	defer cancel()
	release, err := s.acquire(ctx)
	if err != nil {
		s.rejectAdmission(w, err)
		return
	}
	defer release()

	faults.Fire("server", "load")
	e, ok := s.load(ctx, name, body.Configs)
	snap := e.snap
	if !ok {
		writeJSON(w, http.StatusGatewayTimeout, apiResponse{
			Snapshot: name, ExitCode: ExitCancelled,
			Error: "snapshot load cancelled by deadline", Diags: diagStrings(snap.Diags())})
		return
	}
	// Read the snapshot's state before putEntry publishes it: once the
	// entry is visible, another request may mutate the snapshot under
	// anMu, which this handler does not hold.
	resp := apiResponse{
		Snapshot:    name,
		ExitCode:    ExitOK,
		Devices:     snap.Net.DeviceNames(),
		Warnings:    len(snap.Warnings),
		Quarantined: snap.Quarantined(),
		Diags:       diagStrings(snap.Diags()),
	}
	s.putEntry(e)
	if len(resp.Diags) > 0 {
		resp.ExitCode = ExitDegraded
		s.m.Degraded.Add(1)
	} else {
		s.m.OK.Add(1)
	}
	writeJSON(w, http.StatusOK, resp)
}

// load parses configs into an entry ready to publish. ok is false when
// ctx cancelled the load (counted); the entry then holds only the
// cancelled snapshot.
func (s *Server) load(ctx context.Context, name string, configs map[string]string) (e *snapEntry, ok bool) {
	snap := core.LoadTextWithContext(ctx, s.pl, configs)
	if snap.Cancelled() {
		s.m.Cancelled.Add(1)
		return &snapEntry{snap: snap}, false
	}
	snap.WithContext(nil)
	return &snapEntry{name: name, texts: maps.Clone(configs), snap: snap}, true
}

// editBody is the POST /snapshots/{name}/edit request body.
type editBody struct {
	As      string            `json:"as"`
	Changes map[string]string `json:"changes"`
}

func (s *Server) handleEdit(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	e, ok := s.entry(name)
	if !ok {
		s.m.ClientErrors.Add(1)
		writeJSON(w, http.StatusNotFound, apiResponse{ExitCode: ExitUsage, Error: "no snapshot " + name})
		return
	}
	var body editBody
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&body); err != nil {
		s.m.ClientErrors.Add(1)
		writeJSON(w, http.StatusBadRequest, apiResponse{ExitCode: ExitUsage, Error: "bad body: " + err.Error()})
		return
	}
	if body.As == "" || body.As == name {
		s.m.ClientErrors.Add(1)
		writeJSON(w, http.StatusBadRequest, apiResponse{ExitCode: ExitUsage, Error: `"as" must name a distinct snapshot`})
		return
	}
	ctx, cancel, err := s.reqContext(r)
	if err != nil {
		s.m.ClientErrors.Add(1)
		writeJSON(w, http.StatusBadRequest, apiResponse{ExitCode: ExitUsage, Error: err.Error()})
		return
	}
	defer cancel()
	release, err := s.acquire(ctx)
	if err != nil {
		s.rejectAdmission(w, err)
		return
	}
	defer release()

	faults.Fire("server", "edit")
	// The base resolution and the overlay build both touch snapshot
	// internals that concurrent questions mutate, so they run under anMu;
	// the response fields are read there too, before putEntry publishes
	// the new snapshot to other requests.
	s.anMu.Lock()
	ns := s.snapshotFor(e).Edit(body.Changes)
	resp := apiResponse{
		Snapshot:    body.As,
		ExitCode:    ExitOK,
		Devices:     ns.Net.DeviceNames(),
		Warnings:    len(ns.Warnings),
		Quarantined: ns.Quarantined(),
		Diags:       diagStrings(ns.Diags()),
	}
	s.anMu.Unlock()
	e.mu.Lock()
	texts := maps.Clone(e.texts)
	e.mu.Unlock()
	for k, v := range body.Changes {
		if v == "" {
			delete(texts, k)
		} else {
			texts[k] = v
		}
	}
	s.putEntry(&snapEntry{name: body.As, texts: texts, snap: ns})
	if len(resp.Diags) > 0 {
		resp.ExitCode = ExitDegraded
		s.m.Degraded.Add(1)
	} else {
		s.m.OK.Add(1)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !s.deleteEntry(name) {
		s.m.ClientErrors.Add(1)
		writeJSON(w, http.StatusNotFound, apiResponse{ExitCode: ExitUsage, Error: "no snapshot " + name})
		return
	}
	writeJSON(w, http.StatusOK, apiResponse{Snapshot: name, ExitCode: ExitOK, Deleted: true})
}

func (s *Server) handleDiagnostics(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	e, ok := s.entry(name)
	if !ok {
		s.m.ClientErrors.Add(1)
		writeJSON(w, http.StatusNotFound, apiResponse{ExitCode: ExitUsage, Error: "no snapshot " + name})
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
	if srcs, err := parseSourceLocs(q["src"]); err != nil {
		s.m.ClientErrors.Add(1)
		writeJSON(w, http.StatusBadRequest, apiResponse{ExitCode: ExitUsage, Error: err.Error()})
		return
	} else {
		params.Sources = srcs
	}
	for _, v := range q["dst"] {
		p, err := ip4.ParsePrefix(v)
		if err != nil {
			s.m.ClientErrors.Add(1)
			writeJSON(w, http.StatusBadRequest, apiResponse{ExitCode: ExitUsage, Error: "bad dst: " + err.Error()})
			return
		}
		params.DstIPs = append(params.DstIPs, p)
	}
	var text string
	s.serveQuestion(w, r, "reachability", func(snap *core.Snapshot) {
		text = RenderFlows(snap.Reachability(params))
	}, &text)
}

func (s *Server) handleServiceReachable(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	spec := core.ServiceSpec{}
	for _, v := range q["dst"] {
		p, err := ip4.ParsePrefix(v)
		if err != nil {
			s.m.ClientErrors.Add(1)
			writeJSON(w, http.StatusBadRequest, apiResponse{ExitCode: ExitUsage, Error: "bad dst: " + err.Error()})
			return
		}
		spec.DstIPs = append(spec.DstIPs, p)
	}
	if len(spec.DstIPs) == 0 {
		s.m.ClientErrors.Add(1)
		writeJSON(w, http.StatusBadRequest, apiResponse{ExitCode: ExitUsage, Error: "at least one dst=CIDR is required"})
		return
	}
	if v := q.Get("port"); v != "" {
		p, err := strconv.ParseUint(v, 10, 16)
		if err != nil {
			s.m.ClientErrors.Add(1)
			writeJSON(w, http.StatusBadRequest, apiResponse{ExitCode: ExitUsage, Error: "bad port: " + err.Error()})
			return
		}
		spec.Port = uint16(p)
	}
	if v := q.Get("proto"); v != "" {
		p, err := strconv.ParseUint(v, 10, 8)
		if err != nil {
			s.m.ClientErrors.Add(1)
			writeJSON(w, http.StatusBadRequest, apiResponse{ExitCode: ExitUsage, Error: "bad proto: " + err.Error()})
			return
		}
		spec.Proto = uint8(p)
	}
	clients, err := parseSourceLocs(q["client"])
	if err != nil {
		s.m.ClientErrors.Add(1)
		writeJSON(w, http.StatusBadRequest, apiResponse{ExitCode: ExitUsage, Error: err.Error()})
		return
	}
	spec.Clients = clients
	var text string
	s.serveQuestion(w, r, "service-reachable", func(snap *core.Snapshot) {
		text = RenderService(snap.ServiceReachable(spec))
	}, &text)
}

func (s *Server) handleCompare(w http.ResponseWriter, r *http.Request) {
	withName := r.URL.Query().Get("with")
	if withName == "" {
		s.m.ClientErrors.Add(1)
		writeJSON(w, http.StatusBadRequest, apiResponse{ExitCode: ExitUsage, Error: "with=SNAPSHOT is required"})
		return
	}
	we, ok := s.entry(withName)
	if !ok {
		s.m.ClientErrors.Add(1)
		writeJSON(w, http.StatusNotFound, apiResponse{ExitCode: ExitUsage, Error: "no snapshot " + withName})
		return
	}
	var text string
	s.serveQuestion(w, r, "compare", func(snap *core.Snapshot) {
		// Resolve the candidate inside the question body so its (possible)
		// rebuild and the CompareWith mutations of its memoized artifacts
		// both happen under anMu.
		text = RenderDiffs(snap.CompareWith(s.snapshotFor(we)))
	}, &text)
}

// serveQuestion is the shared question path: resolve the entry, consult
// its breaker, pass admission control, run the question (with retry)
// under the request deadline, feed the outcome back into the breaker, and
// map the containment result onto HTTP + exit codes.
func (s *Server) serveQuestion(w http.ResponseWriter, r *http.Request, q string, fn func(*core.Snapshot), text *string) {
	name := r.PathValue("name")
	e, ok := s.entry(name)
	if !ok {
		s.m.ClientErrors.Add(1)
		writeJSON(w, http.StatusNotFound, apiResponse{ExitCode: ExitUsage, Error: "no snapshot " + name})
		return
	}
	if ok, retryAfter := e.br.allow(s.cfg.BreakerThreshold, s.cfg.BreakerCooldown); !ok {
		s.m.BreakerRejects.Add(1)
		s.m.Shed503.Add(1)
		writeShed(w, http.StatusServiceUnavailable, retryAfter,
			fmt.Sprintf("circuit breaker open for snapshot %s", name))
		return
	}
	ctx, cancel, err := s.reqContext(r)
	if err != nil {
		// Client error, not the snapshot's fault: release a half-open probe
		// neutrally — neither closing the breaker nor resetting the
		// consecutive-failure count of a closed one.
		e.br.abort(s.cfg.BreakerThreshold)
		s.m.ClientErrors.Add(1)
		writeJSON(w, http.StatusBadRequest, apiResponse{ExitCode: ExitUsage, Error: err.Error()})
		return
	}
	defer cancel()
	release, err := s.acquire(ctx)
	if err != nil {
		// Shed before execution: the probe never touched the snapshot, so
		// release it neutrally rather than counting a success — overload
		// must not close a failing snapshot's breaker or mask its failures.
		e.br.abort(s.cfg.BreakerThreshold)
		s.rejectAdmission(w, err)
		return
	}
	defer release()

	qr := s.runQuestion(ctx, e, q, func(snap *core.Snapshot) {
		faults.Fire("server", q)
		fn(snap)
	})

	resp := apiResponse{Snapshot: name, Question: q, Attempts: qr.attempts,
		Diags: diagStrings(qr.diags), Text: *text}
	switch {
	case qr.cancelled:
		// The client's own deadline is not a service-quality signal: count
		// neither success nor failure, but release a half-open probe so the
		// breaker cannot wedge with probing set forever.
		e.br.abort(s.cfg.BreakerThreshold)
		s.m.Cancelled.Add(1)
		resp.ExitCode = ExitCancelled
		resp.Error = "question cancelled by deadline"
		writeJSON(w, http.StatusGatewayTimeout, resp)
	case len(qr.diags) > 0:
		e.br.record(s.cfg.BreakerThreshold, false)
		s.m.Degraded.Add(1)
		resp.ExitCode = ExitDegraded
		writeJSON(w, http.StatusOK, resp)
	default:
		e.br.record(s.cfg.BreakerThreshold, true)
		s.m.OK.Add(1)
		resp.ExitCode = ExitOK
		writeJSON(w, http.StatusOK, resp)
	}
}

// rejectAdmission maps an acquire error onto the wire.
func (s *Server) rejectAdmission(w http.ResponseWriter, err error) {
	if se, ok := err.(*shedError); ok {
		writeShed(w, se.Status, se.RetryAfter, se.Reason)
		return
	}
	// The request context expired while queued.
	s.m.Cancelled.Add(1)
	writeJSON(w, http.StatusGatewayTimeout,
		apiResponse{ExitCode: ExitCancelled, Error: "deadline expired while queued"})
}

// parseSourceLocs parses repeated "device" or "device/iface" params.
func parseSourceLocs(vals []string) ([]reach.SourceLoc, error) {
	var out []reach.SourceLoc
	for _, v := range vals {
		if v == "" {
			return nil, fmt.Errorf("empty source location")
		}
		dev, iface, _ := strings.Cut(v, "/")
		out = append(out, reach.SourceLoc{Device: dev, Iface: iface})
	}
	return out, nil
}
