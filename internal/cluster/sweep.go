package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"sync"

	"repro/internal/server"
	"repro/internal/sweep"
)

// Distributed sweeps: the owning member plans the sweep (deterministic
// enumeration + equivalence classing), deals the classes across the live
// members by rendezvous hash, and ships each remote member its share.
// Remotes replan from the same spec — planning is deterministic, so both
// sides derive identical class IDs — execute their subset, and return
// the ClassResults, which the owner assembles with its own into the full
// verdict set. A remote that fails (dead, draining, shedding) just means
// the owner executes that share locally: distribution is an optimization,
// never a correctness dependency.

// sweepExecRequest is the cluster-internal body of POST
// /cluster/sweep-exec/{name}: the client's original sweep body (so the
// remote parses the spec with the exact public grammar) plus the class
// subset to execute.
type sweepExecRequest struct {
	Body    json.RawMessage `json:"body"`
	Classes []string        `json:"classes"`
}

// sweepLine mirrors the server's NDJSON sweep stream line, so clients
// cannot tell a distributed sweep from a local one by shape.
type sweepLine struct {
	Type       string         `json:"type"`
	Snapshot   string         `json:"snapshot,omitempty"`
	Enumerated int            `json:"enumerated,omitempty"`
	Classes    int            `json:"classes,omitempty"`
	Executed   int            `json:"executed,omitempty"`
	Pruned     int            `json:"pruned,omitempty"`
	Verdict    *sweep.Verdict `json:"verdict,omitempty"`
	Violations int            `json:"violations,omitempty"`
	Degraded   bool           `json:"degraded,omitempty"`
	ExitCode   int            `json:"exit_code,omitempty"`
	Error      string         `json:"error,omitempty"`
}

// specFromBody parses a sweep spec from raw body bytes through the
// server's public grammar (an empty body is the default spec).
func specFromBody(body []byte) (sweep.Spec, error) {
	req, err := http.NewRequest(http.MethodPost, "http://cluster.internal/sweep", bytes.NewReader(body))
	if err != nil {
		return sweep.Spec{}, err
	}
	return server.ParseSweepBody(req)
}

// serveClusterSweep is the owner-side distributed sweep. It replaces the
// wrapped server's sweep handler only when the view has company; the
// single-member cluster keeps the local path (and its circuit-breaker
// semantics) untouched.
func (n *Node) serveClusterSweep(w http.ResponseWriter, r *http.Request, name string, body []byte, view View) {
	spec, err := specFromBody(body)
	if err != nil {
		writeClusterError(w, http.StatusBadRequest, err.Error())
		return
	}
	release, err := n.inner.Admit(r.Context())
	if err != nil {
		if !writeShedErr(w, err) {
			writeClusterError(w, http.StatusGatewayTimeout, "deadline expired while queued")
		}
		return
	}
	defer release()

	ctx := r.Context()
	plan, err := n.inner.PlanSweep(ctx, name, spec)
	if err != nil {
		n.writePlanError(w, name, err)
		return
	}

	// Deal classes across the live members; this node keeps its share.
	ids := plan.ClassIDs()
	memberIDs := make([]string, 0, len(view.Members))
	addrs := make(map[string]string, len(view.Members))
	for _, m := range view.Members {
		memberIDs = append(memberIDs, m.ID)
		addrs[m.ID] = m.Addr
	}
	parts := PartitionClasses(ids, memberIDs)

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

	var mu sync.Mutex
	var results []sweep.ClassResult
	var failed []string // classes whose remote did not deliver
	var wg sync.WaitGroup
	for _, id := range memberIDs {
		if id == n.cfg.ID || len(parts[id]) == 0 {
			continue
		}
		wg.Add(1)
		go func(addr string, memberID string, classes []string) {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					mu.Lock()
					failed = append(failed, classes...)
					mu.Unlock()
				}
			}()
			crs, err := n.execRemote(ctx, addr, name, body, classes)
			mu.Lock()
			if err != nil {
				n.cfg.Logf("cluster: sweep share on %s failed (%v); running %d classes locally",
					memberID, err, len(classes))
				failed = append(failed, classes...)
			} else {
				results = append(results, crs...)
			}
			mu.Unlock()
		}(addrs[id], id, parts[id])
	}
	local := plan.ExecuteClasses(ctx, parts[n.cfg.ID], nil)
	wg.Wait()
	mu.Lock()
	results = append(results, local...)
	retry := append([]string(nil), failed...)
	mu.Unlock()
	if len(retry) > 0 && ctx.Err() == nil {
		sort.Strings(retry)
		n.m.sweepFallback.Add(int64(len(retry)))
		results = append(results, plan.ExecuteClasses(ctx, retry, nil)...)
	}

	res := plan.Assemble(results)
	for i := range res.Verdicts {
		v := res.Verdicts[i]
		emitLine(sweepLine{Type: "verdict", Verdict: &v})
	}
	summary := sweepLine{Type: "summary", Snapshot: name,
		Enumerated: res.Enumerated, Classes: res.Classes, Executed: res.Executed,
		Pruned: res.Pruned, Violations: res.Violations, Degraded: res.Degraded}
	switch {
	case ctx.Err() != nil:
		summary.ExitCode = server.ExitCancelled
		summary.Error = "sweep cancelled: " + ctx.Err().Error()
	case res.Degraded:
		summary.ExitCode = server.ExitDegraded
	default:
		summary.ExitCode = server.ExitOK
	}
	emitLine(summary)
}

// writePlanError maps PlanSweep's sentinel errors onto the same statuses
// the local sweep handler uses.
func (n *Node) writePlanError(w http.ResponseWriter, name string, err error) {
	switch {
	case errors.Is(err, server.ErrUnknownSnapshot):
		writeClusterError(w, http.StatusNotFound, err.Error())
	case errors.Is(err, server.ErrSweepDegraded):
		writeClusterError(w, http.StatusOK, err.Error())
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		writeClusterError(w, http.StatusGatewayTimeout, err.Error())
	default:
		writeClusterError(w, http.StatusBadRequest, "sweep: "+err.Error())
	}
}

// execRemote ships one member its class share and decodes the results.
func (n *Node) execRemote(ctx context.Context, addr, name string, body []byte, classes []string) ([]sweep.ClassResult, error) {
	payload, err := json.Marshal(sweepExecRequest{Body: body, Classes: classes})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		addr+"/cluster/sweep-exec/"+url.PathEscape(name), bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := n.cfg.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return nil, fmt.Errorf("sweep-exec on %s: status %d: %s", addr, resp.StatusCode, bytes.TrimSpace(msg))
	}
	var crs []sweep.ClassResult
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxBody)).Decode(&crs); err != nil {
		return nil, err
	}
	return crs, nil
}

// handleSweepExec is the member-side executor for a forwarded class
// share: rehydrate the snapshot if this node never loaded it (the shared
// cache makes that cheap), take an admission slot, replan
// deterministically, execute exactly the requested classes, and return
// their ClassResults.
func (n *Node) handleSweepExec(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req sweepExecRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(&req); err != nil {
		writeClusterError(w, http.StatusBadRequest, "bad body: "+err.Error())
		return
	}
	spec, err := specFromBody(req.Body)
	if err != nil {
		writeClusterError(w, http.StatusBadRequest, err.Error())
		return
	}
	ctx := r.Context()
	if !n.inner.HasSnapshot(name) && !n.rehydrate(ctx, name) {
		writeClusterError(w, http.StatusNotFound, "no snapshot "+name+" and no manifest to rehydrate from")
		return
	}
	release, err := n.inner.Admit(ctx)
	if err != nil {
		if !writeShedErr(w, err) {
			writeClusterError(w, http.StatusGatewayTimeout, "deadline expired while queued")
		}
		return
	}
	defer release()
	plan, err := n.inner.PlanSweep(ctx, name, spec)
	if err != nil {
		n.writePlanError(w, name, err)
		return
	}
	results := plan.ExecuteClasses(ctx, req.Classes, nil)
	if ctx.Err() != nil {
		writeClusterError(w, http.StatusGatewayTimeout, "sweep share cancelled: "+ctx.Err().Error())
		return
	}
	n.m.sweepClassesIn.Add(int64(len(results)))
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(results) //nolint:errcheck // client went away
}
