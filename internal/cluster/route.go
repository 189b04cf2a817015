package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"io"
	"net/http"
	"strings"

	"repro/internal/faults"
)

// routes wires the node's mux: cluster control endpoints first, then the
// catch-all ownership router in front of the wrapped server.
func (n *Node) routes() {
	n.mux.HandleFunc("POST /cluster/join", n.handleJoin)
	n.mux.HandleFunc("POST /cluster/heartbeat", n.handleHeartbeat)
	n.mux.HandleFunc("POST /cluster/leave", n.handleLeave)
	n.mux.HandleFunc("GET /cluster/members", n.handleMembers)
	n.mux.HandleFunc("POST /cluster/drain", n.handleClusterDrain)
	n.mux.HandleFunc("/", n.route)
}

// OwnerOf resolves a snapshot's owning member by rendezvous hashing:
// the member with the highest hrwWeight(id, name). Deterministic for a
// member set, independent of member order, and minimally disturbed by
// membership changes — a dead member's snapshots redistribute across the
// survivors without moving anything else. The zero Member is returned
// for an empty view.
func OwnerOf(members []Member, name string) Member {
	var best Member
	var bestScore [sha256.Size]byte
	for _, m := range members {
		score := hrwWeight(m.ID, name)
		if best.ID == "" || bytes.Compare(score[:], bestScore[:]) > 0 {
			best, bestScore = m, score
		}
	}
	return best
}

// hrwWeight is the rendezvous weight sha256(member NUL subject). The NUL
// separator keeps ("ab","c") and ("a","bc") from colliding.
func hrwWeight(member, subject string) [sha256.Size]byte {
	h := sha256.New()
	h.Write([]byte(member))
	h.Write([]byte{0})
	h.Write([]byte(subject))
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// snapshotPath splits a per-snapshot API path into the snapshot name and
// the trailing subresource ("" for /snapshots/{name} itself). Non-
// snapshot paths yield "".
func snapshotPath(path string) (name, rest string) {
	p, ok := strings.CutPrefix(path, "/snapshots/")
	if !ok || p == "" {
		return "", ""
	}
	if i := strings.IndexByte(p, '/'); i >= 0 {
		return p[:i], p[i:]
	}
	return p, ""
}

// route is the ownership router in front of every per-snapshot endpoint:
// own the snapshot → serve locally (rehydrating from the shared cache if
// this node just inherited it); someone else owns it → forward, unless
// the request was already forwarded once (hop limit 1 → 502).
// Non-snapshot paths (/healthz, /metrics, /snapshots listing) always
// serve locally.
func (n *Node) route(w http.ResponseWriter, r *http.Request) {
	name, rest := snapshotPath(r.URL.Path)
	if name == "" {
		n.inner.Handler().ServeHTTP(w, r)
		return
	}
	body, err := readBody(w, r)
	if err != nil {
		writeClusterError(w, http.StatusRequestEntityTooLarge, "request body too large")
		return
	}
	view := n.View()
	owner := OwnerOf(view.Members, name)
	if owner.ID == "" || owner.ID == n.cfg.ID {
		n.serveLocal(w, r, name, rest, body)
		return
	}
	if via := r.Header.Get(HopHeader); via != "" {
		// Forwarded here by a member whose view disagrees with ours. The
		// benign cause is our own view being stale — a failover forwarder
		// learns a new epoch from the coordinator before we hear it in a
		// heartbeat response — so refresh from the coordinator before
		// judging. If the fresh view says we own it, serve; otherwise one
		// hop is the limit: answer 502 so the sender retries against a
		// fresher view instead of the request orbiting the cluster.
		fresh := n.fetchView(r.Context())
		owner = OwnerOf(fresh.Members, name)
		if owner.ID == "" || owner.ID == n.cfg.ID {
			n.serveLocal(w, r, name, rest, body)
			return
		}
		n.m.forwardLoops.Add(1)
		w.Header().Set(HopHeader, n.cfg.ID)
		writeClusterError(w, http.StatusBadGateway,
			"forwarding loop: "+via+" forwarded "+name+" here but "+owner.ID+" owns it")
		return
	}
	n.forward(w, r, name, body, view)
}

// serveLocal answers an owned snapshot request through the wrapped
// server. Every request but a load first syncs this member's copy of the
// snapshot (and of a compare's "with") with its name record in the shared
// cache: installing it when this node inherited ownership or another
// member changed it, dropping it when another member deleted it.
// Successful loads and edits then publish the new copy's manifest and
// name record; deletes remove the record, so no copy answers for the name
// again and failover does not resurrect it.
func (n *Node) serveLocal(w http.ResponseWriter, r *http.Request, name, rest string, body []byte) {
	if err := faults.FireErr("cluster-serve", n.cfg.ID); err != nil {
		writeClusterError(w, http.StatusInternalServerError, err.Error())
		return
	}
	isLoad := rest == "" && (r.Method == http.MethodPut || r.Method == http.MethodPost)
	if !isLoad {
		n.sync(r.Context(), name)
		if rest == "/compare" {
			n.sync(r.Context(), r.URL.Query().Get("with"))
		}
	}
	rec := &statusRecorder{ResponseWriter: w}
	n.inner.Handler().ServeHTTP(rec, r)
	if rec.status != http.StatusOK {
		return
	}
	switch {
	case isLoad:
		n.publish(name)
	case rest == "/edit" && r.Method == http.MethodPost:
		n.publish(editTarget(body))
	case rest == "" && r.Method == http.MethodDelete:
		n.copies.Delete(name)
		if err := n.inner.Disk().DeleteRecord(nameRecord(name)); err != nil {
			n.cfg.Logf("cluster: %s retiring %s: %v", n.cfg.ID, name, err)
		}
	}
}

// editTarget extracts the "as" name from an edit body.
func editTarget(body []byte) string {
	var b struct {
		As string `json:"as"`
	}
	if json.Unmarshal(body, &b) != nil {
		return ""
	}
	return b.As
}

// readBody buffers the request body (bounded) so it can be replayed:
// forwarding retries re-send it, and the edit path re-reads it for the
// manifest name. The request's Body is replaced with the buffer.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	if r.Body == nil {
		return nil, nil
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		return nil, err
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	return body, nil
}

// statusRecorder captures the response status while passing streaming
// writes (and flushes — sweeps are NDJSON) straight through.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (s *statusRecorder) WriteHeader(code int) {
	if s.status == 0 {
		s.status = code
	}
	s.ResponseWriter.WriteHeader(code)
}

func (s *statusRecorder) Write(p []byte) (int, error) {
	if s.status == 0 {
		s.status = http.StatusOK
	}
	return s.ResponseWriter.Write(p)
}

func (s *statusRecorder) Flush() {
	if f, ok := s.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
