package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/ip4"
	"repro/internal/sweep"
)

// sweepBody is the POST /snapshots/{name}/sweep request body. All fields
// are optional; the zero body sweeps k=1 link and node failures from the
// snapshot's host-facing interfaces.
type sweepBody struct {
	K            int      `json:"k"`
	Fail         []string `json:"fail"`
	Src          []string `json:"src"`
	Dst          []string `json:"dst"`
	Workers      int      `json:"workers"`
	MaxScenarios int      `json:"max_scenarios"`
}

// sweepLine is one NDJSON line of the streaming sweep response. The first
// line has Type "plan" (enumeration and pruning counts, before any
// execution), each completed scenario produces a "verdict" line as its
// equivalence class finishes, and the final "summary" line carries the
// CLI-equivalent exit code — the stream's trailer replaces the
// X-Batfish-Exit-Code header, which cannot be set once streaming begins.
type sweepLine struct {
	Type     string `json:"type"`
	Snapshot string `json:"snapshot,omitempty"`

	// plan + summary fields
	Enumerated int `json:"enumerated,omitempty"`
	Classes    int `json:"classes,omitempty"`
	Executed   int `json:"executed,omitempty"`
	Pruned     int `json:"pruned,omitempty"`

	// verdict payload
	Verdict *sweep.Verdict `json:"verdict,omitempty"`

	// summary fields
	Violations int    `json:"violations,omitempty"`
	Degraded   bool   `json:"degraded,omitempty"`
	ExitCode   int    `json:"exit_code,omitempty"`
	Error      string `json:"error,omitempty"`
}

// handleSweep runs a failure-scenario sweep over a named snapshot,
// streaming one NDJSON verdict line per scenario as equivalence classes
// complete. It is admitted like a question (admit), and planning
// (enumeration, blast-radius classification, the baseline run) is one
// attempt on the snapshot, without retry: it touches the shared BDD
// factory and therefore holds anMu. Execution runs on private per-worker
// pipelines, so the lock is released before the first verdict is computed
// and concurrent questions proceed while the sweep executes. The request
// holds one admission slot for its whole duration.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	spec, err := parseSweepBody(r)
	if err != nil {
		s.clientError(w, http.StatusBadRequest, err.Error())
		return
	}
	e, ctx, finish, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer finish(outcomeFailed)

	faults.Fire("server", "sweep")
	var plan *sweep.Plan
	var planErr error
	diags, cancelled := s.attempt(ctx, e, "sweep", func(snap *core.Snapshot) {
		plan, planErr = sweep.NewPlan(snap, spec)
	})
	name := e.name
	switch {
	case cancelled:
		finish(outcomeCancelled)
		writeJSON(w, http.StatusGatewayTimeout, apiResponse{Snapshot: name,
			ExitCode: ExitCancelled, Error: "sweep planning cancelled by deadline"})
		return
	case len(diags) > 0:
		finish(outcomeDegraded)
		writeJSON(w, http.StatusOK, apiResponse{Snapshot: name, ExitCode: ExitDegraded,
			Diags: diagStrings(diags), Error: "sweep planning degraded the snapshot"})
		return
	case planErr != nil:
		finish(outcomeClientError)
		writeJSON(w, http.StatusBadRequest, apiResponse{Snapshot: name,
			ExitCode: ExitUsage, Error: planErr.Error()})
		return
	}

	// Stream. From here on, status and headers are committed: outcomes
	// (including cancellation) travel in the trailing summary line.
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emitLine := func(l sweepLine) {
		enc.Encode(l) //nolint:errcheck // client went away; sweep still completes
		if flusher != nil {
			flusher.Flush()
		}
	}
	emitLine(sweepLine{Type: "plan", Snapshot: name,
		Enumerated: plan.Enumerated(), Classes: plan.Classes()})

	res, execErr := plan.Execute(ctx, func(v sweep.Verdict) {
		emitLine(sweepLine{Type: "verdict", Verdict: &v})
	})

	summary := sweepLine{Type: "summary", Snapshot: name}
	if res != nil {
		summary.Enumerated = res.Enumerated
		summary.Classes = res.Classes
		summary.Executed = res.Executed
		summary.Pruned = res.Pruned
		summary.Violations = res.Violations
		summary.Degraded = res.Degraded
	}
	switch {
	case execErr != nil:
		finish(outcomeCancelled)
		summary.ExitCode = ExitCancelled
		summary.Error = "sweep cancelled: " + execErr.Error()
	case res.Degraded:
		finish(outcomeDegraded)
		summary.ExitCode = ExitDegraded
	default:
		finish(outcomeOK)
	}
	emitLine(summary)
}

// parseSweepBody builds the sweep.Spec from the request body. An empty
// body is valid and yields the default spec. Workers is capped at
// GOMAXPROCS: each worker loads the whole snapshot into a private
// pipeline, all under the request's one admission slot, and verdicts do
// not depend on the worker count.
func parseSweepBody(r *http.Request) (sweep.Spec, error) {
	var body sweepBody
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxBodyBytes))
	if err := dec.Decode(&body); err != nil && !errors.Is(err, io.EOF) {
		return sweep.Spec{}, fmt.Errorf("bad body: %v", err)
	}
	spec := sweep.Spec{K: body.K, Workers: min(body.Workers, runtime.GOMAXPROCS(0)),
		MaxScenarios: body.MaxScenarios}
	for _, kind := range body.Fail {
		switch kind {
		case "links":
			spec.Links = true
		case "nodes":
			spec.Nodes = true
		case "sessions":
			spec.Sessions = true
		default:
			return spec, fmt.Errorf("unknown fail kind %q (want links, nodes, or sessions)", kind)
		}
	}
	srcs, err := parseSourceLocs(body.Src)
	if err != nil {
		return spec, err
	}
	spec.Sources = srcs
	for _, c := range body.Dst {
		p, err := ip4.ParsePrefix(c)
		if err != nil {
			return spec, fmt.Errorf("bad dst %q: %v", c, err)
		}
		spec.DstIPs = append(spec.DstIPs, p)
	}
	return spec, nil
}
