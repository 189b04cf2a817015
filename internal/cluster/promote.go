package cluster

import (
	"encoding/json"
	"errors"
	"time"

	"repro/internal/diskcache"
	"repro/internal/faults"
)

// Coordinator failover. The coordinator's authority is backed by two
// things in the shared disk cache: a renewable lease (diskcache/lease.go
// — exclusive by construction, crash-orphaned when its holder dies) and
// a record naming the holder's ID, address, and epoch. The lease decides
// *who* coordinates; the record tells everyone else *where*. Members
// that lose heartbeat contact past the suspicion window first look for a
// record naming a new coordinator (some rival already won) and otherwise
// race to acquire the lease; the winner promotes itself with an epoch
// strictly past any it has seen, and every other node converges on it
// through the record — including demoted ex-coordinators, which detect
// the loss on their next renewal and rejoin as members.
//
// Epoch monotonicity across the handoff: the winner bumps past its own
// highest epoch at promotion, and any member that saw a higher epoch
// from the dead coordinator carries it in its next heartbeat, which
// jumps the new coordinator past that too (handleRegistration). So
// "newer view" keeps meaning "higher epoch" even though the authority
// moved between processes.

// coordLeaseName is the lease every would-be coordinator races for.
const coordLeaseName = "cluster/coordinator"

// coordRecordName names the coordinator record: a pinned record in the
// shared cache, atomically rewritten by each new lease holder.
const coordRecordName = "cluster/coordinator"

// coordRecord names the current lease holder so members can re-resolve
// the coordinator address without being able to ask the dead one.
type coordRecord struct {
	ID    string `json:"id"`
	Addr  string `json:"addr"`
	Epoch int64  `json:"epoch"`
}

// leaseTTL is the coordinator lease's time-to-live: the suspicion window.
// The lease is renewed every half heartbeat, so it only lapses when the
// holder is dead or wedged — on the same timescale the failure detector
// uses for members.
func (n *Node) leaseTTL() time.Duration { return n.cfg.SuspectAfter }

// failoverEnabled reports whether this node takes part in the lease
// protocol: failover needs a shared disk cache to anchor the lease.
func (n *Node) failoverEnabled() bool { return n.inner.Disk() != nil }

// readCoordRecord loads the coordinator record from the shared cache
// (none without a disk tier: a nil cache always misses).
func (n *Node) readCoordRecord() (coordRecord, bool) {
	buf, ok := n.inner.Disk().Record(coordRecordName)
	if !ok {
		return coordRecord{}, false
	}
	var rec coordRecord
	if json.Unmarshal(buf, &rec) != nil || rec.ID == "" || rec.Addr == "" {
		return coordRecord{}, false
	}
	return rec, true
}

// writeCoordRecord publishes this node as the coordinator. Only the lease
// holder calls it, so the record always names a node that held the lease
// when it wrote.
func (n *Node) writeCoordRecord(epoch int64) {
	n.mu.Lock()
	rec := coordRecord{ID: n.self.ID, Addr: n.self.Addr, Epoch: epoch}
	n.mu.Unlock()
	buf, err := json.Marshal(rec)
	if err == nil {
		err = n.inner.Disk().WriteRecord(coordRecordName, buf)
	}
	if err != nil {
		n.cfg.Logf("cluster: %s writing the coordinator record: %v", n.cfg.ID, err)
	}
}

// bootstrapCoordinator decides how a node started without a join address
// comes up. Normally it acquires the coordinator lease and coordinates;
// if another live coordinator already holds the lease — this node is a
// restarted ex-coordinator, or an operator double-started the seed — it
// returns that coordinator's address and became=false so Start joins it
// as a member instead. A held lease without a usable record (or a record
// naming this node, i.e. its own crash orphan) still coordinates:
// maintainLease keeps retrying the lease from the coordinator side.
func (n *Node) bootstrapCoordinator(self Member) (joinAddr string, became bool) {
	self.Role = RoleCoordinator
	var lease *diskcache.Lease
	if n.failoverEnabled() {
		l, err := n.inner.Disk().AcquireLease(coordLeaseName, n.cfg.ID, n.leaseTTL())
		switch {
		case err == nil:
			lease = l
		case errors.Is(err, diskcache.ErrLeaseHeld):
			if rec, ok := n.readCoordRecord(); ok && rec.ID != n.cfg.ID && rec.Addr != self.Addr {
				return rec.Addr, false
			}
		default:
			n.cfg.Logf("cluster: %s coordinator lease unavailable at start: %v", n.cfg.ID, err)
		}
	}
	n.mu.Lock()
	n.self = self
	n.coordinator = true
	n.view = View{Epoch: 1, Members: []Member{self}}
	n.lastSeen[self.ID] = n.now()
	n.lease = lease
	n.mu.Unlock()
	if lease != nil {
		n.writeCoordRecord(1)
	}
	return "", true
}

// attemptFailover runs on a member once the coordinator has been silent
// past the suspicion window. The cheap path is adopting a successor some
// rival already promoted (the record changed); otherwise race for the
// lease. ErrLeaseHeld means the dead coordinator's last grant has not
// expired yet, or a rival just won — either way, retry on a later tick;
// the epoch'd record resolves who actually coordinates. The
// "cluster-promote" fault stage stalls a candidate here so chaos tests
// can pick the race winner deterministically.
func (n *Node) attemptFailover() {
	if !n.failoverEnabled() {
		return
	}
	if n.adoptCoordRecord() {
		return
	}
	if err := faults.FireErr("cluster-promote", n.cfg.ID); err != nil {
		n.m.promoteStalled.Add(1)
		return
	}
	lease, err := n.inner.Disk().AcquireLease(coordLeaseName, n.cfg.ID, n.leaseTTL())
	if err != nil {
		return
	}
	n.promote(lease)
}

// adoptCoordRecord points this member at the coordinator named by the
// shared record when that is fresh news — a node other than this one and
// other than the coordinator it is already (failing at) talking to.
// Adoption resets the contact clock, granting the successor a full
// suspicion window before this member doubts it too.
func (n *Node) adoptCoordRecord() bool {
	rec, ok := n.readCoordRecord()
	if !ok || rec.ID == n.cfg.ID {
		return false
	}
	n.mu.Lock()
	adopted := !n.coordinator && rec.Addr != n.coordAddr
	if adopted {
		n.coordAddr = rec.Addr
		n.lastContact = n.now()
	}
	n.mu.Unlock()
	if adopted {
		n.m.coordAdoptions.Add(1)
		n.cfg.Logf("cluster: %s following new coordinator %s at %s", n.cfg.ID, rec.ID, rec.Addr)
	}
	return adopted
}

// promote turns this member into the coordinator after winning the lease
// race. The dead coordinator leaves the view; the surviving members are
// retained with a fresh suspicion window — ownership of everything they
// hold is undisturbed, and they re-register as their heartbeats land on
// the new address (resolved through the record this writes). The epoch
// jumps strictly past the highest this node ever saw; members that saw
// more carry it in their heartbeats and handleRegistration jumps past
// that too.
func (n *Node) promote(lease *diskcache.Lease) {
	n.mu.Lock()
	if n.coordinator || n.draining {
		n.mu.Unlock()
		n.releaseLease(lease, "coordinator")
		return
	}
	oldCoord := n.coordAddr
	var stale []string
	for _, m := range n.view.Members {
		if m.Role == RoleCoordinator {
			stale = append(stale, m.ID)
		}
	}
	for _, id := range stale {
		n.removeMemberLocked(id)
		delete(n.lastSeen, id)
	}
	n.coordinator = true
	n.self.Role = RoleCoordinator
	n.setMemberLocked(n.self)
	n.view.Epoch++
	n.coordAddr = ""
	n.lease = lease
	n.renewFails = time.Time{}
	for _, m := range n.view.Members {
		n.lastSeen[m.ID] = n.now()
	}
	epoch := n.view.Epoch
	n.mu.Unlock()
	n.m.promotions.Add(1)
	n.writeCoordRecord(epoch)
	n.cfg.Logf("cluster: %s promoted to coordinator (epoch %d) after %s went silent",
		n.cfg.ID, epoch, oldCoord)
}

// releaseLease releases a lease and logs — rather than drops — a
// failure: a lease file that outlives its holder makes every future
// acquirer of that name wait out a TTL nobody is using. A nil lease
// (acquire failed, or already handed off) is a no-op.
func (n *Node) releaseLease(lease *diskcache.Lease, what string) {
	if lease == nil {
		return
	}
	if err := lease.Release(); err != nil {
		n.cfg.Logf("cluster: %s releasing %s lease: %v", n.cfg.ID, what, err)
	}
}

// maintainLease runs every coordinator tick. The lease is renewed twice
// per suspicion window, so only a dead or wedged coordinator lets it
// lapse. Losing it means a member already promoted itself: step down and
// follow the record — this is how a partitioned ex-coordinator that
// reappears discovers the world moved on. Renewals that merely error
// (shared cache briefly unreachable) are tolerated for one suspicion
// window; past that this node can no longer prove it is the only
// coordinator and demotes itself rather than risk a split brain.
func (n *Node) maintainLease() {
	if !n.failoverEnabled() {
		return
	}
	n.mu.Lock()
	lease := n.lease
	n.mu.Unlock()
	if lease == nil {
		l, err := n.inner.Disk().AcquireLease(coordLeaseName, n.cfg.ID, n.leaseTTL())
		if err != nil {
			if errors.Is(err, diskcache.ErrLeaseHeld) {
				n.demote("another coordinator holds the lease")
			}
			return
		}
		n.mu.Lock()
		n.lease = l
		epoch := n.view.Epoch
		n.mu.Unlock()
		n.writeCoordRecord(epoch)
		return
	}
	switch err := lease.Renew(n.leaseTTL()); {
	case err == nil:
		n.mu.Lock()
		n.renewFails = time.Time{}
		n.mu.Unlock()
	case errors.Is(err, diskcache.ErrLeaseLost):
		n.demote("coordinator lease lost")
	default:
		n.mu.Lock()
		if n.renewFails.IsZero() {
			n.renewFails = n.now()
		}
		lapsed := n.now().Sub(n.renewFails) > n.cfg.SuspectAfter
		n.mu.Unlock()
		if lapsed {
			n.demote("coordinator lease unrenewable")
		}
	}
}

// demote steps an ex-coordinator down to member. If the record already
// names a successor, follow it — the next heartbeat re-registers this
// node there, and the view that comes back (with its strictly higher
// epoch) replaces the stale one. Otherwise the contact clock is zeroed
// so the node immediately rejoins the failover race from the member
// side. Either way it keeps serving its snapshots: demotion moves the
// membership authority, not the data plane.
func (n *Node) demote(why string) {
	rec, ok := n.readCoordRecord()
	n.mu.Lock()
	if !n.coordinator {
		n.mu.Unlock()
		return
	}
	n.coordinator = false
	n.self.Role = RoleMember
	n.setMemberLocked(n.self)
	n.lease = nil
	n.renewFails = time.Time{}
	n.lastBeat = time.Time{} // heartbeat the successor on the next tick
	if ok && rec.ID != n.cfg.ID && rec.Addr != "" {
		n.coordAddr = rec.Addr
		n.lastContact = n.now()
	} else {
		n.coordAddr = ""
		n.lastContact = time.Time{}
	}
	n.mu.Unlock()
	n.m.demotions.Add(1)
	n.cfg.Logf("cluster: %s demoted to member (%s)", n.cfg.ID, why)
}
