package cluster

import (
	"bytes"
	"io"
	"net/http"
	"time"

	"repro/internal/faults"
	"repro/internal/server"
)

// relayHeaders are the response headers a forwarder propagates upstream
// verbatim. Retry-After in particular must survive the hop: a 429/503
// from the owner carries the owner's backoff hint, and rewriting or
// dropping it would make clients hammer a member that already said slow
// down.
var relayHeaders = []string{"Content-Type", "Retry-After", server.ExitCodeHeader}

// forwardRetries is how many times a forwarder re-resolves the owner after
// a transport failure before giving up with 502.
const forwardRetries = 2

// forward relays a request for a snapshot owned by another member. The
// happy path is one hop: send, copy the response back (whatever its
// status — the owner's 429/503/404 are real answers, not transport
// failures). On a transport error or a 502 ownership disagreement the
// owner is presumed dead or the view stale, so the forwarder waits for
// the view epoch to advance (the failure detector's job), re-resolves
// the owner, and retries — at most forwardRetries times, each bounded by
// FailoverWait. Ownership may fail over to this node itself, in which
// case the request is served locally.
func (n *Node) forward(w http.ResponseWriter, r *http.Request, name string, body []byte, view View) {
	n.m.forwarded.Add(1)
	owner := OwnerOf(view.Members, name)
	epoch := view.Epoch
	for attempt := 0; ; attempt++ {
		if owner.ID == "" || owner.ID == n.cfg.ID {
			_, rest := snapshotPath(r.URL.Path)
			n.serveLocal(w, r, name, rest, body)
			return
		}
		resp, err := n.relay(r, owner, body)
		if err == nil && resp.StatusCode != http.StatusBadGateway {
			n.copyResponse(w, resp)
			return
		}
		if resp != nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for reuse
			if cerr := resp.Body.Close(); cerr != nil {
				n.cfg.Logf("cluster: %s closing relayed response from %s: %v", n.cfg.ID, owner.ID, cerr)
			}
		}
		if attempt >= forwardRetries {
			n.m.forwardFailed.Add(1)
			w.Header().Set(HopHeader, n.cfg.ID)
			writeClusterError(w, http.StatusBadGateway,
				"snapshot "+name+": owner "+owner.ID+" unreachable and no view change within failover wait")
			return
		}
		n.m.forwardRetries.Add(1)
		nv, changed := n.awaitViewChange(r, epoch)
		if !changed {
			n.m.forwardFailed.Add(1)
			w.Header().Set(HopHeader, n.cfg.ID)
			writeClusterError(w, http.StatusBadGateway,
				"snapshot "+name+": owner "+owner.ID+" unreachable and no view change within failover wait")
			return
		}
		epoch = nv.Epoch
		owner = OwnerOf(nv.Members, name)
		n.cfg.Logf("cluster: %s retrying %s %s against new owner %s (epoch %d)",
			n.cfg.ID, r.Method, r.URL.Path, owner.ID, epoch)
	}
}

// relay performs the single forwarded request. The hop header marks it
// forwarded so the receiver never forwards again. The "cluster-forward"
// fault stage injects transport failures for partition experiments.
func (n *Node) relay(r *http.Request, owner Member, body []byte) (*http.Response, error) {
	if err := faults.FireErr("cluster-forward", n.cfg.ID); err != nil {
		return nil, err
	}
	out, err := http.NewRequestWithContext(r.Context(), r.Method,
		owner.Addr+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		out.Header.Set("Content-Type", ct)
	}
	out.Header.Set(HopHeader, n.cfg.ID)
	return n.cfg.Client.Do(out)
}

// copyResponse streams the owner's response upstream, preserving the
// relayed headers and stamping the forwarded-by hop header so clients
// can see the extra hop. 429/503 relays are counted — they are the
// owner's admission control and circuit breaker speaking through this
// node, not this node's own shedding.
func (n *Node) copyResponse(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	for _, h := range relayHeaders {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set(HopHeader, n.cfg.ID)
	switch resp.StatusCode {
	case http.StatusTooManyRequests:
		n.m.relayed429.Add(1)
	case http.StatusServiceUnavailable:
		n.m.relayed503.Add(1)
	}
	w.WriteHeader(resp.StatusCode)
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		nr, err := resp.Body.Read(buf)
		if nr > 0 {
			if _, werr := w.Write(buf[:nr]); werr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush() // NDJSON sweep streams stay line-buffered across the hop
			}
		}
		if err != nil {
			return
		}
	}
}

// awaitViewChange polls the coordinator until the view epoch passes
// sinceEpoch, the failover wait elapses, or the request dies. It returns
// the freshest view seen and whether it actually changed.
func (n *Node) awaitViewChange(r *http.Request, sinceEpoch int64) (View, bool) {
	ctx := r.Context()
	deadline := n.now().Add(n.cfg.FailoverWait)
	poll := n.cfg.Heartbeat / 2
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	for {
		v := n.fetchView(ctx)
		if v.Epoch > sinceEpoch {
			return v, true
		}
		if ctx.Err() != nil || n.now().After(deadline) {
			return v, false
		}
		t := time.NewTimer(poll)
		select {
		case <-ctx.Done():
			t.Stop()
			return v, false
		case <-n.stop:
			t.Stop()
			return v, false
		case <-t.C:
		}
	}
}
