package server

// Cluster-facing hooks. The cluster layer (internal/cluster) wraps a
// Server per member; these accessors expose exactly what routing,
// failover rehydration, and heir replication need without the server
// importing the cluster package or duplicating its containment logic.

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/diskcache"
	"repro/internal/pipeline"
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

// SnapshotNames returns the sorted names of the snapshots this server
// currently holds.
func (s *Server) SnapshotNames() []string { return s.names() }

// SnapshotArtifactKeys returns the content-addressed keys of the named
// snapshot's disk-persistable artifacts — the per-device parse artifacts
// plus the data-plane artifact for its current options. This is what an
// heir pre-replicates so failover rehydration never re-parses. ok is
// false for unknown names and for entries whose live snapshot is torn
// down pending a rebuild.
func (s *Server) SnapshotArtifactKeys(name string) ([]pipeline.Key, bool) {
	e, found := s.entry(name)
	if !found {
		return nil, false
	}
	e.mu.Lock()
	snap := e.snap
	e.mu.Unlock()
	if snap == nil {
		return nil, false
	}
	return snap.ArtifactKeys(), true
}

// InstallSnapshot parses and publishes a snapshot from raw configs — the
// handleLoad engine path without the HTTP surface. The cluster layer uses
// it to rehydrate an inherited snapshot from the shared manifest after a
// member dies; parse and dataplane artifacts the dead member committed to
// the shared cache make the rebuild a warm start. Degradation is not an
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

// Admit takes an execution slot outside any HTTP request, subject to the
// same bounded queue and drain rules as HTTP requests; while it is held,
// requests that need a slot queue or are shed with 429/503. The release
// func must be called exactly once when err is nil.
func (s *Server) Admit(ctx context.Context) (release func(), err error) {
	return s.acquire(ctx)
}
