package server

// Cluster-facing hooks. The cluster layer (internal/cluster) wraps a
// Server per member; these accessors expose exactly what ownership
// routing and failover rehydration from the shared cache directory need,
// without the server importing the cluster package or duplicating its
// containment logic.

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/diskcache"
)

// Disk returns the server's persistent cache tier (nil when the server
// runs without one). In a cluster every member opens the same cache
// directory, making it the content-addressed artifact store a failover
// heir warm-starts from.
func (s *Server) Disk() *diskcache.Cache { return s.disk }

// HasSnapshot reports whether the server currently holds the named
// snapshot.
func (s *Server) HasSnapshot(name string) bool {
	_, ok := s.entry(name)
	return ok
}

// SnapshotSources returns a copy of the named snapshot's full source set
// (base texts with any edits applied — rehydrating from it flattens the
// edit chain but analyzes identically). ok is false for unknown names.
func (s *Server) SnapshotSources(name string) (configs map[string]string, ok bool) {
	e, found := s.entry(name)
	if !found {
		return nil, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	configs = make(map[string]string, len(e.texts))
	for k, v := range e.texts {
		configs[k] = v
	}
	return configs, true
}

// DropSnapshot discards the named snapshot without the HTTP surface (no
// admission, no request metrics): a copy deleted on another member.
func (s *Server) DropSnapshot(name string) { s.deleteEntry(name) }

// InstallSnapshot parses and publishes a snapshot from raw configs — the
// handleLoad engine path without the HTTP surface. The cluster layer uses
// it to rehydrate an inherited snapshot from the shared manifest after a
// member dies; the data-plane artifact the dead member committed to the
// shared cache makes the rebuild a warm start. Degradation is not an
// error (the snapshot is still published, matching handleLoad); a
// cancelled load is.
func (s *Server) InstallSnapshot(ctx context.Context, name string, configs map[string]string) error {
	if len(configs) == 0 {
		return fmt.Errorf("install %s: no configs", name)
	}
	snap := core.LoadTextWithContext(ctx, s.pl, configs)
	if snap.Cancelled() {
		s.m.Cancelled.Add(1)
		return fmt.Errorf("install %s: load cancelled: %w", name, ctx.Err())
	}
	snap.WithContext(nil)
	texts := make(map[string]string, len(configs))
	for k, v := range configs {
		texts[k] = v
	}
	s.putEntry(&snapEntry{name: name, texts: texts, snap: snap})
	return nil
}
