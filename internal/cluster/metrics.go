package cluster

// Metrics is the node's point-in-time cluster view, embedded in the
// wrapped server's /metrics response under "cluster" (via
// server.SetClusterMetrics).
type Metrics struct {
	MemberID string `json:"member_id"`
	Role     string `json:"role"`
	Epoch    int64  `json:"epoch"`
	Members  int    `json:"members"`
	Draining bool   `json:"draining"`

	Forwarded         int64 `json:"forwarded"`
	ForwardRetries    int64 `json:"forward_retries"`
	ForwardLoops      int64 `json:"forward_loops"`
	ForwardFailed     int64 `json:"forward_failed"`
	Relayed429        int64 `json:"relayed_429"`
	Relayed503        int64 `json:"relayed_503"`
	HeartbeatsSent    int64 `json:"heartbeats_sent"`
	HeartbeatsMissed  int64 `json:"heartbeats_missed"`
	HeartbeatsDropped int64 `json:"heartbeats_dropped"`
	MembersFailed     int64 `json:"members_failed"`
	Rehydrations      int64 `json:"rehydrations"`
	ManifestPuts      int64 `json:"manifest_puts"`

	// Coordinator failover.
	LeaseHeld      bool  `json:"lease_held"`
	Promotions     int64 `json:"promotions"`
	Demotions      int64 `json:"demotions"`
	CoordAdoptions int64 `json:"coord_adoptions"`
	PromoteStalled int64 `json:"promote_stalled"`
}

// Metrics snapshots the node's counters and membership state.
func (n *Node) Metrics() Metrics {
	n.mu.Lock()
	role := RoleMember
	if n.coordinator {
		role = RoleCoordinator
	}
	m := Metrics{
		MemberID:  n.cfg.ID,
		Role:      role,
		Epoch:     n.view.Epoch,
		Members:   len(n.view.Members),
		Draining:  n.draining,
		LeaseHeld: n.lease != nil,
	}
	n.mu.Unlock()
	m.Forwarded = n.m.forwarded.Load()
	m.ForwardRetries = n.m.forwardRetries.Load()
	m.ForwardLoops = n.m.forwardLoops.Load()
	m.ForwardFailed = n.m.forwardFailed.Load()
	m.Relayed429 = n.m.relayed429.Load()
	m.Relayed503 = n.m.relayed503.Load()
	m.HeartbeatsSent = n.m.heartbeatsSent.Load()
	m.HeartbeatsMissed = n.m.heartbeatsMissed.Load()
	m.HeartbeatsDropped = n.m.heartbeatsDropped.Load()
	m.MembersFailed = n.m.membersFailed.Load()
	m.Rehydrations = n.m.rehydrations.Load()
	m.ManifestPuts = n.m.manifestPuts.Load()
	m.Promotions = n.m.promotions.Load()
	m.Demotions = n.m.demotions.Load()
	m.CoordAdoptions = n.m.coordAdoptions.Load()
	m.PromoteStalled = n.m.promoteStalled.Load()
	return m
}
