package server

// Cluster-facing hooks. The cluster layer (internal/cluster) wraps a
// Server per member; these accessors expose exactly what ownership
// routing and failover rehydration from the shared cache directory need,
// without the server importing the cluster package or duplicating its
// containment logic.

import (
	"context"
	"fmt"

	"repro/internal/diskcache"
)

// Disk returns the server's persistent cache tier (nil when the server
// runs without one). In a cluster every member opens the same cache
// directory, making it the content-addressed artifact store a failover
// heir warm-starts from.
func (s *Server) Disk() *diskcache.Cache { return s.disk }

// SnapshotSources returns a copy of the named snapshot's full source set,
// read from its live snapshot (base texts with any edits applied —
// rehydrating from it flattens the edit chain but analyzes identically).
// ok is false for unknown names.
func (s *Server) SnapshotSources(name string) (configs map[string]string, ok bool) {
	e, found := s.entry(name)
	if !found {
		return nil, false
	}
	e.mu.Lock()
	snap := e.snap
	e.mu.Unlock()
	return snap.SourceTexts(), true
}

// DropSnapshot discards the named snapshot without the HTTP surface (no
// admission, no request metrics): a copy its cluster name record disowns.
func (s *Server) DropSnapshot(name string) { s.deleteEntry(name) }

// InstallSnapshot parses and publishes a snapshot from raw configs — the
// handleLoad engine path without the HTTP surface. The cluster layer uses
// it to install a snapshot from its shared-cache manifest (after a member
// dies, or when another member changed it); the data-plane artifact
// committed to the shared cache makes the rebuild a warm start.
// Degradation is not an error (the snapshot is still published, matching
// handleLoad); a cancelled load is.
func (s *Server) InstallSnapshot(ctx context.Context, name string, configs map[string]string) error {
	snap, ok := s.load(ctx, configs)
	if !ok {
		return fmt.Errorf("install %s: load cancelled: %w", name, ctx.Err())
	}
	s.putEntry(&snapEntry{name: name, snap: snap})
	return nil
}
