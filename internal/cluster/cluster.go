// Package cluster turns independent batfishd servers into one service:
// a coordinator tracks membership through periodic heartbeats and a
// timeout failure detector, snapshots are owned by rendezvous hashing
// over the live member set, and every node transparently forwards
// requests for snapshots it does not own to the owning member. When the
// detector declares a member dead the view epoch advances, ownership of
// its snapshots moves deterministically to the surviving members, and
// the heir rehydrates them from manifests in the shared content-addressed
// disk cache — warm-starting from the dead member's data-plane artifacts
// instead of simulating again.
//
// The design follows the coordinator/member pattern: exactly one node is
// the coordinator (initially, the one started without a join address)
// and holds the authoritative view; members learn the view from
// heartbeat responses. The coordinator is a regular snapshot-serving
// member too — and it is not a single point of failure: its authority is
// backed by a renewable lease on the shared disk cache, and when members
// lose contact with it past the suspicion window they race to acquire
// that lease, the winner promoting itself with an epoch strictly past
// any it has seen (promote.go). Lease, coordinator record and manifests
// all live in the one cache directory every member opens, so a member
// whose cache does not hold the coordinator's record is refused at join.
package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/diskcache"
	"repro/internal/server"
)

// Roles a member registers with.
const (
	RoleCoordinator = "coordinator"
	RoleMember      = "member"
)

// HopHeader marks a request as already forwarded once (request side) and
// names the relaying member (response side). The hop limit is 1: a node
// receiving a forwarded request for a snapshot it does not own answers
// 502 instead of forwarding again, so divergent views can never loop a
// request around the cluster.
const HopHeader = "X-Batfish-Forwarded-By"

// maxBody bounds buffered request bodies, mirroring the server's limit.
const maxBody = 64 << 20

// Member is one node's identity in the cluster view.
type Member struct {
	ID   string `json:"id"`
	Addr string `json:"addr"` // base URL, e.g. http://10.0.0.7:7071
	Role string `json:"role"`
	// Epoch rides only on join/heartbeat request bodies: the sender's
	// current view epoch. A freshly promoted coordinator uses it to jump
	// its own epoch strictly past anything the dead coordinator handed
	// out before the crash. Always zero inside views.
	Epoch int64 `json:"epoch,omitempty"`
}

// View is the membership at one epoch. Members are sorted by ID; the
// epoch advances on every join, leave, and failure-detector removal, so
// forwarders can wait for "a view newer than the one that failed me".
type View struct {
	Epoch   int64    `json:"epoch"`
	Members []Member `json:"members"`
}

// clone returns a deep copy safe to hand out without holding locks.
func (v View) clone() View {
	out := View{Epoch: v.Epoch, Members: make([]Member, len(v.Members))}
	copy(out.Members, v.Members)
	return out
}

// Config configures one cluster node.
type Config struct {
	// ID is the member's stable identity (hash input for ownership).
	ID string
	// Server is the wrapped analysis server.
	Server *server.Server
	// Heartbeat is the member→coordinator heartbeat period (default 1s).
	Heartbeat time.Duration
	// SuspectAfter is how long a member may stay silent before the
	// detector declares it dead (default 2×Heartbeat — "failover within
	// two heartbeat intervals").
	SuspectAfter time.Duration
	// FailoverWait bounds how long a forwarder waits for a view change
	// after the owner stops answering (default SuspectAfter+2×Heartbeat:
	// the detector needs SuspectAfter to notice, plus heartbeat slack for
	// the new view to propagate).
	FailoverWait time.Duration
	// Client performs forwarded and cluster-control requests (default: a
	// dedicated client; the shared http.DefaultClient is never mutated).
	Client *http.Client
	// Logf, when set, receives membership and failover events.
	Logf func(format string, args ...any)
	// Clock is the node's time source (default: the wall clock). Tests
	// inject a fake to drive detection and failover without sleeping.
	Clock Clock
}

func (c *Config) defaults() error {
	if c.ID == "" {
		return fmt.Errorf("cluster: config needs a member ID")
	}
	if c.Server == nil {
		return fmt.Errorf("cluster: config needs a server")
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = time.Second
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 2 * c.Heartbeat
	}
	if c.FailoverWait <= 0 {
		c.FailoverWait = c.SuspectAfter + 2*c.Heartbeat
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.Clock == nil {
		c.Clock = systemClock{}
	}
	return nil
}

// Node is one cluster member wrapping a server.Server. Construct with
// NewNode, wire Handler into a listener, then Start.
type Node struct {
	cfg   Config
	inner *server.Server
	mux   *http.ServeMux

	mu          sync.Mutex
	self        Member
	coordinator bool
	coordAddr   string // coordinator base URL (members only)
	view        View
	lastSeen    map[string]time.Time // coordinator: member ID → last heartbeat
	draining    bool
	lease       *diskcache.Lease // coordinator: the held coordinator lease (nil without a disk tier)
	renewFails  time.Time        // coordinator: start of the current lease-renew failure streak
	lastContact time.Time        // member: last successful exchange with the coordinator
	lastBeat    time.Time        // member: last heartbeat attempt (the loop ticks faster than it beats)

	copies sync.Map // snapshot name → manifest digest of the server's copy (store.go)

	stop     chan struct{}
	stopOnce sync.Once
	loops    sync.WaitGroup

	m nodeCounters
}

// NewNode builds a node around the given server and registers the
// cluster metrics hook. The node is inert until Start.
func NewNode(cfg Config) (*Node, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	n := &Node{
		cfg:      cfg,
		inner:    cfg.Server,
		mux:      http.NewServeMux(),
		lastSeen: make(map[string]time.Time),
		stop:     make(chan struct{}),
	}
	n.routes()
	n.inner.SetClusterMetrics(func() any { return n.Metrics() })
	return n, nil
}

// Handler serves the node's full surface: the wrapped server's API with
// ownership routing, plus the /cluster/* control endpoints.
func (n *Node) Handler() http.Handler { return n.mux }

// Start brings the node online. An empty joinAddr makes this node the
// coordinator — unless another coordinator already holds the lease on the
// shared cache (a restarted ex-coordinator, say), in which case the node
// defers to it and comes up as a member. Otherwise it registers with the
// coordinator at joinAddr and starts heartbeating; if that target turns
// out dead or demoted, the coordinator record in the shared cache names
// the live one to join instead. A member with a disk tier whose cache
// does not name the coordinator it joined is refused (sharedCacheCheck).
// advertiseAddr is the base URL other members reach this node at. The
// background loops stop when ctx is cancelled, Kill is called, or Drain
// completes.
func (n *Node) Start(ctx context.Context, advertiseAddr, joinAddr string) error {
	self := Member{ID: n.cfg.ID, Addr: advertiseAddr, Role: RoleMember}
	if joinAddr == "" {
		if addr, became := n.bootstrapCoordinator(self); became {
			n.loops.Add(1)
			go n.runLoop(ctx)
			n.cfg.Logf("cluster: %s coordinating at %s", self.ID, advertiseAddr)
			return nil
		} else {
			joinAddr = addr
			n.cfg.Logf("cluster: %s found a live coordinator lease, joining %s as a member", self.ID, addr)
		}
	}
	n.mu.Lock()
	n.self = self
	n.coordAddr = joinAddr
	n.lastBeat = n.now()
	n.lastContact = n.now()
	n.mu.Unlock()
	v, err := n.postMember(ctx, joinAddr+"/cluster/join", self)
	if err != nil {
		// The join target may itself have died or been demoted since the
		// operator copied its address; the coordinator record in the shared
		// cache names the live one.
		rec, ok := n.readCoordRecord()
		if !ok || rec.Addr == joinAddr || rec.ID == n.cfg.ID {
			return fmt.Errorf("cluster: join %s: %w", joinAddr, err)
		}
		n.cfg.Logf("cluster: %s join %s failed (%v); retrying via coordinator record at %s",
			self.ID, joinAddr, err, rec.Addr)
		joinAddr = rec.Addr
		n.mu.Lock()
		n.coordAddr = joinAddr
		n.mu.Unlock()
		if v, err = n.postMember(ctx, joinAddr+"/cluster/join", self); err != nil {
			return fmt.Errorf("cluster: join %s: %w", joinAddr, err)
		}
	}
	if err := n.sharedCacheCheck(ctx, v, joinAddr, self); err != nil {
		return err
	}
	n.setView(v)
	n.loops.Add(1)
	go n.runLoop(ctx)
	n.cfg.Logf("cluster: %s joined %s (epoch %d)", self.ID, joinAddr, v.Epoch)
	return nil
}

// sharedCacheCheck refuses a join when this member has a disk tier but
// the coordinator record in it does not name, by ID and address, the
// coordinator it just joined: the member opened another cache directory,
// so it shares neither lease nor manifests, and once the coordinator dies
// it would win a lease nobody else races for. A coordinator that started
// while an earlier lease was live writes its record only once it wins
// that lease, so the record is re-read for up to one lease TTL first. The
// refused member leaves again so the coordinator need not detect it.
func (n *Node) sharedCacheCheck(ctx context.Context, v View, joinAddr string, self Member) error {
	if n.inner.Disk() == nil {
		return nil
	}
	coord := Member{Addr: joinAddr}
	for _, m := range v.Members {
		if m.Role == RoleCoordinator {
			coord = m
		}
	}
	rec, ok := n.readCoordRecord()
	shared := func() bool { return ok && rec.ID == coord.ID && rec.Addr == coord.Addr }
	for wait := n.leaseTTL(); !shared() && wait > 0 && ctx.Err() == nil; wait -= n.cfg.Heartbeat {
		t := time.NewTimer(n.cfg.Heartbeat)
		select {
		case <-ctx.Done():
			t.Stop()
		case <-t.C:
			rec, ok = n.readCoordRecord()
		}
	}
	if shared() {
		return nil
	}
	if _, err := n.postMember(ctx, joinAddr+"/cluster/leave", self); err != nil {
		n.cfg.Logf("cluster: %s leave after refused join failed: %v", self.ID, err)
	}
	named := "no coordinator"
	if ok {
		named = fmt.Sprintf("coordinator %s at %s", rec.ID, rec.Addr)
	}
	return fmt.Errorf("cluster: %s joined coordinator %s at %s, but the cache of %s names %s: "+
		"cluster members must open one shared cache directory", self.ID, coord.ID, coord.Addr, self.ID, named)
}

// Kill stops the node's background loops without leaving the cluster or
// draining — the crash path (tests pair it with closing the listener).
// The coordinator's failure detector must notice the silence.
func (n *Node) Kill() {
	n.stopOnce.Do(func() { close(n.stop) })
	n.loops.Wait()
}

// Drain takes the node out of service gracefully: hand off snapshot
// ownership by leaving the view (so new requests route to the heirs,
// which rehydrate from the shared cache), stop heartbeating, then drain
// the wrapped server — new work is rejected with 503, in-flight work
// finishes (bounded by ctx).
func (n *Node) Drain(ctx context.Context) error {
	n.mu.Lock()
	already := n.draining
	n.draining = true
	coordinator, coordAddr, self := n.coordinator, n.coordAddr, n.self
	n.mu.Unlock()
	if !already {
		if coordinator {
			n.mu.Lock()
			if n.removeMemberLocked(self.ID) {
				n.view.Epoch++
			}
			lease := n.lease
			n.lease = nil
			n.mu.Unlock()
			// Releasing (rather than letting it lapse) lets a surviving
			// member win the coordinator race immediately instead of
			// waiting out the suspicion window.
			n.releaseLease(lease, "coordinator")
		} else if _, err := n.postMember(ctx, coordAddr+"/cluster/leave", self); err != nil {
			n.cfg.Logf("cluster: %s leave failed: %v", self.ID, err)
		}
		n.stopOnce.Do(func() { close(n.stop) })
		n.loops.Wait()
		n.cfg.Logf("cluster: %s drained out of the view", self.ID)
	}
	return n.inner.Drain(ctx)
}

// View returns the node's current membership view.
func (n *Node) View() View {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.view.clone()
}

// setView adopts a newer view learned from the coordinator — and, on
// members, re-derives the coordinator address from it, so heartbeats and
// forwarding retries follow a coordinator change instead of polling the
// corpse of the node they first joined.
func (n *Node) setView(v View) {
	n.mu.Lock()
	if v.Epoch > n.view.Epoch {
		n.view = v.clone()
		if !n.coordinator {
			for _, m := range n.view.Members {
				if m.Role == RoleCoordinator && m.ID != n.self.ID && m.Addr != "" {
					n.coordAddr = m.Addr
				}
			}
		}
	}
	n.mu.Unlock()
}

// setMemberLocked upserts a member into the sorted view, reporting
// whether the view changed. Callers hold n.mu and bump the epoch on
// change.
func (n *Node) setMemberLocked(m Member) bool {
	for i, cur := range n.view.Members {
		if cur.ID == m.ID {
			if cur == m {
				return false
			}
			n.view.Members[i] = m
			return true
		}
	}
	n.view.Members = append(n.view.Members, m)
	sort.Slice(n.view.Members, func(i, j int) bool {
		return n.view.Members[i].ID < n.view.Members[j].ID
	})
	return true
}

// removeMemberLocked drops a member from the view, reporting whether it
// was present. Callers hold n.mu and bump the epoch on change.
func (n *Node) removeMemberLocked(id string) bool {
	for i, cur := range n.view.Members {
		if cur.ID == id {
			n.view.Members = append(n.view.Members[:i], n.view.Members[i+1:]...)
			return true
		}
	}
	return false
}

// nodeCounters is the node's hot-path instrumentation.
type nodeCounters struct {
	forwarded         atomic.Int64
	forwardRetries    atomic.Int64
	forwardLoops      atomic.Int64
	forwardFailed     atomic.Int64
	relayed429        atomic.Int64
	relayed503        atomic.Int64
	heartbeatsSent    atomic.Int64
	heartbeatsMissed  atomic.Int64
	heartbeatsDropped atomic.Int64
	membersFailed     atomic.Int64
	rehydrations      atomic.Int64
	manifestPuts      atomic.Int64

	// Coordinator failover (promote.go).
	promotions     atomic.Int64
	demotions      atomic.Int64
	coordAdoptions atomic.Int64
	promoteStalled atomic.Int64
}
