package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	"repro/internal/faults"
)

// errNotCoordinator marks a 421 from a join/heartbeat target: the peer is
// alive but no longer (or not yet) the coordinator. The caller should
// re-resolve the coordinator through the shared record.
var errNotCoordinator = errors.New("peer is not the coordinator")

// runLoop is the node's single control loop, ticking at half the
// heartbeat period. On the coordinator each tick reaps silent members
// and renews the coordinator lease; on a member it heartbeats once per
// period and watches for coordinator silence. One loop serves both roles
// because failover moves a node between them mid-life: a member that
// wins the lease race is a coordinator on its next tick, a coordinator
// that loses its lease is a member on its next.
func (n *Node) runLoop(ctx context.Context) {
	defer n.loops.Done()
	period := n.cfg.Heartbeat / 2
	if period <= 0 {
		period = time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-n.stop:
			return
		case <-t.C:
		}
		n.mu.Lock()
		coordinator := n.coordinator
		n.mu.Unlock()
		if coordinator {
			n.coordTick()
		} else {
			n.memberTick(ctx)
		}
	}
}

// coordTick is one coordinator beat: run the failure detector, keep the
// coordinator lease alive.
func (n *Node) coordTick() {
	n.reapDead()
	n.maintainLease()
}

// memberTick is one member beat: at most one heartbeat POST per
// heartbeat period (the response carries the current view, so membership
// changes propagate within one heartbeat), plus the coordinator-death
// watch. A 421 from the target means it was demoted — the shared record
// names its successor, so adopt it immediately instead of waiting out
// the suspicion window. Silence past SuspectAfter triggers the failover
// race (promote.go). The "cluster-heartbeat" fault stage drops
// heartbeats for partition experiments — the coordinator then declares
// this member dead even though it is still serving.
func (n *Node) memberTick(ctx context.Context) {
	n.mu.Lock()
	self, coordAddr := n.self, n.coordAddr
	self.Epoch = n.view.Epoch
	due := coordAddr != "" && n.now().Sub(n.lastBeat) >= n.cfg.Heartbeat
	if due {
		n.lastBeat = n.now()
	}
	lastContact, draining := n.lastContact, n.draining
	n.mu.Unlock()
	if due {
		if err := faults.FireErr("cluster-heartbeat", self.ID); err != nil {
			n.m.heartbeatsDropped.Add(1)
		} else if v, err := n.postMember(ctx, coordAddr+"/cluster/heartbeat", self); err != nil {
			n.m.heartbeatsMissed.Add(1)
			if errors.Is(err, errNotCoordinator) {
				n.adoptCoordRecord()
			}
		} else {
			n.m.heartbeatsSent.Add(1)
			n.setView(v)
			n.mu.Lock()
			n.lastContact = n.now()
			n.mu.Unlock()
			return
		}
	}
	if !draining && n.now().Sub(lastContact) > n.cfg.SuspectAfter {
		n.attemptFailover()
	}
}

// reapDead removes members silent past the suspicion window. Removal
// bumps the epoch, which reassigns the dead member's snapshots by
// rendezvous hash and unblocks forwarders waiting in awaitViewChange.
func (n *Node) reapDead() {
	cutoff := n.now().Add(-n.cfg.SuspectAfter)
	n.mu.Lock()
	var dead []string
	for id, seen := range n.lastSeen {
		if id != n.self.ID && seen.Before(cutoff) {
			dead = append(dead, id)
		}
	}
	sort.Strings(dead)
	for _, id := range dead {
		delete(n.lastSeen, id)
		n.removeMemberLocked(id)
	}
	if len(dead) > 0 {
		n.view.Epoch++
		n.m.membersFailed.Add(int64(len(dead)))
	}
	epoch := n.view.Epoch
	n.mu.Unlock()
	for _, id := range dead {
		n.cfg.Logf("cluster: member %s declared dead (epoch %d)", id, epoch)
	}
}

// handleJoin registers a member and returns the new view (coordinator
// only).
func (n *Node) handleJoin(w http.ResponseWriter, r *http.Request) {
	n.handleRegistration(w, r, true)
}

// handleHeartbeat refreshes a member's liveness and returns the current
// view (coordinator only). An unknown member — reaped during a
// partition, now healed — is re-admitted.
func (n *Node) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	n.handleRegistration(w, r, false)
}

func (n *Node) handleRegistration(w http.ResponseWriter, r *http.Request, join bool) {
	var m Member
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&m); err != nil || m.ID == "" || m.Addr == "" {
		writeClusterError(w, http.StatusBadRequest, "bad member body")
		return
	}
	n.mu.Lock()
	if !n.coordinator {
		n.mu.Unlock()
		writeClusterError(w, http.StatusMisdirectedRequest, "not the coordinator")
		return
	}
	m.Role = RoleMember
	if m.Epoch > n.view.Epoch {
		// The member outlived a previous coordinator and saw epochs this
		// (freshly promoted) one never did; jump strictly past them so
		// "newer view" stays monotonic across the coordinator change.
		n.view.Epoch = m.Epoch + 1
	}
	m.Epoch = 0
	n.lastSeen[m.ID] = n.now()
	if n.setMemberLocked(m) {
		n.view.Epoch++
		if join {
			n.cfg.Logf("cluster: member %s joined (epoch %d)", m.ID, n.view.Epoch)
		} else {
			n.cfg.Logf("cluster: member %s re-admitted by heartbeat (epoch %d)", m.ID, n.view.Epoch)
		}
	}
	v := n.view.clone()
	n.mu.Unlock()
	writeViewJSON(w, v)
}

// handleLeave removes a member from the view (coordinator only) — the
// graceful-drain handoff: ownership moves before the leaver stops
// serving, so forwarders never see a gap.
func (n *Node) handleLeave(w http.ResponseWriter, r *http.Request) {
	var m Member
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&m); err != nil || m.ID == "" {
		writeClusterError(w, http.StatusBadRequest, "bad member body")
		return
	}
	n.mu.Lock()
	if !n.coordinator {
		n.mu.Unlock()
		writeClusterError(w, http.StatusMisdirectedRequest, "not the coordinator")
		return
	}
	delete(n.lastSeen, m.ID)
	if n.removeMemberLocked(m.ID) {
		n.view.Epoch++
		n.cfg.Logf("cluster: member %s left (epoch %d)", m.ID, n.view.Epoch)
	}
	v := n.view.clone()
	n.mu.Unlock()
	writeViewJSON(w, v)
}

// handleMembers returns the view — authoritative on the coordinator, the
// cached copy on members. Forwarders poll it while waiting for failover.
func (n *Node) handleMembers(w http.ResponseWriter, r *http.Request) {
	writeViewJSON(w, n.View())
}

// handleClusterDrain drains this node (the HTTP twin of the SIGTERM
// path): ownership handoff, then finish-in-flight, bounded by the
// request context.
func (n *Node) handleClusterDrain(w http.ResponseWriter, r *http.Request) {
	if err := n.Drain(r.Context()); err != nil {
		writeClusterError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeViewJSON(w, n.View())
}

// postMember POSTs a member body and decodes the view response.
func (n *Node) postMember(ctx context.Context, url string, m Member) (View, error) {
	body, err := json.Marshal(m)
	if err != nil {
		return View{}, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return View{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := n.cfg.Client.Do(req)
	if err != nil {
		return View{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusMisdirectedRequest {
		return View{}, fmt.Errorf("%s: %w", url, errNotCoordinator)
	}
	if resp.StatusCode != http.StatusOK {
		return View{}, fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	var v View
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&v); err != nil {
		return View{}, err
	}
	return v, nil
}

// fetchView returns the freshest view reachable: the local authoritative
// one on the coordinator, the coordinator's via HTTP on members. When
// the coordinator does not answer, the shared record may name a
// successor that already won the failover race — adopt it and retry once
// before settling for the cached view. This is what lets forwarding
// retries (awaitViewChange) and the hop-limit refresh converge on a new
// coordinator instead of polling the corpse of the old one.
func (n *Node) fetchView(ctx context.Context) View {
	n.mu.Lock()
	coordinator, coordAddr, cached := n.coordinator, n.coordAddr, n.view.clone()
	n.mu.Unlock()
	if coordinator {
		return cached
	}
	if v, ok := n.fetchViewFrom(ctx, coordAddr); ok {
		return v
	}
	if n.adoptCoordRecord() {
		n.mu.Lock()
		coordAddr = n.coordAddr
		n.mu.Unlock()
		if v, ok := n.fetchViewFrom(ctx, coordAddr); ok {
			return v
		}
	}
	return cached
}

// fetchViewFrom GETs one member-list from coordAddr, adopting the view
// and refreshing the contact clock on success.
func (n *Node) fetchViewFrom(ctx context.Context, coordAddr string) (View, bool) {
	if coordAddr == "" {
		return View{}, false
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, coordAddr+"/cluster/members", nil)
	if err != nil {
		return View{}, false
	}
	resp, err := n.cfg.Client.Do(req)
	if err != nil {
		return View{}, false
	}
	defer resp.Body.Close()
	var v View
	if resp.StatusCode != http.StatusOK ||
		json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&v) != nil {
		return View{}, false
	}
	n.setView(v)
	n.mu.Lock()
	n.lastContact = n.now()
	n.mu.Unlock()
	return v, true
}

func writeViewJSON(w http.ResponseWriter, v View) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client went away
}

func writeClusterError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg}) //nolint:errcheck
}
