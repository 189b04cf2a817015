// Package batfish is the public API of the library: a Go reimplementation
// of the Batfish network configuration analysis tool as described in
// "Lessons from the evolution of the Batfish configuration analysis tool"
// (SIGCOMM 2023).
//
// A Snapshot moves through the paper's four-stage pipeline:
//
//  1. configuration text is parsed into a vendor-independent model
//     (LoadDir / LoadText, supporting IOS-style and Junos-style dialects);
//  2. an imperative fixed-point simulation derives the data plane
//     (Snapshot.DataPlane) with graph-colored scheduling and logical
//     clocks for deterministic convergence;
//  3. a BDD-based dataflow analysis verifies forwarding behavior
//     (Snapshot.Reachability, Snapshot.MultipathConsistency, and the
//     lower-level Snapshot.Analysis);
//  4. violations are explained with contrasting positive/negative example
//     packets and annotated traceroutes.
//
// Beyond forwarding analysis, the deep configuration model supports the
// paper's Lesson 5 questions directly: UndefinedReferences,
// UnusedStructures, DuplicateIPs, NTPConsistency, BGPSessionStatus,
// TestFilter, and SearchFilter.
//
// Quick start:
//
//	snap, err := batfish.LoadDir("configs/")
//	if err != nil { ... }
//	for _, f := range snap.UndefinedReferences() {
//		fmt.Println(f)
//	}
//	for _, r := range snap.Reachability(batfish.ReachabilityParams{}) {
//		fmt.Printf("%s/%s: delivered=%v\n", r.Source.Device, r.Source.Iface, r.HasPositive)
//	}
//
// Snapshots run on a staged pipeline with a content-addressed artifact
// store: loading two snapshots that share device configs reuses the
// unchanged parsed models, and byte-identical snapshots dedupe all four
// stages. In the edit-and-re-verify loop, derive a candidate change with
// Snapshot.Edit, which re-parses only the edited configs, and diff it:
//
//	after := snap.Edit(map[string]string{"rtr1.cfg": newText})
//	for _, d := range snap.CompareWith(after) {
//		fmt.Printf("%s/%s broken=%v\n", d.Source.Device, d.Source.Iface, d.HasBroken)
//	}
//
// CompareWith reads every source's flows off one backward pass per sink
// kind on each snapshot; results are byte-identical to comparing two
// fresh loads. CacheStats exposes the store's hit/miss/eviction counters
// and per-stage wall times.
package batfish

import (
	"context"

	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/diag"
	"repro/internal/netgen"
	"repro/internal/pipeline"
)

// Snapshot is one parsed network snapshot; see package core for the full
// method set (questions, data plane access, analyses).
type Snapshot = core.Snapshot

// Finding is one deterministic result row of a question.
type Finding = core.Finding

// FlowResult is the answer to a reachability question, with contrasted
// positive and negative examples (paper §4.4.3).
type FlowResult = core.FlowResult

// ReachabilityParams scope a reachability question; zero values get the
// paper's §4.4.2 default scoping.
type ReachabilityParams = core.ReachabilityParams

// DifferentialFlows reports flows broken or newly admitted by a change.
type DifferentialFlows = core.DifferentialFlows

// ServiceSpec names a service endpoint for the task-specific service
// queries (paper §4.4.1): ServiceReachable (availability, per intended
// client) and ServiceProtected (security, over all other locations).
type ServiceSpec = core.ServiceSpec

// ServiceReachableResult is one client's availability verdict.
type ServiceReachableResult = core.ServiceReachableResult

// ServiceExposure is one unintended access path to a protected service.
type ServiceExposure = core.ServiceExposure

// Options configure the control-plane simulation (iteration bounds,
// parallelism). Its zero Schedule is the colored schedule (paper §4.1.2);
// the lockstep one exists only for the Figure 1 ablation in cmd/batfish.
type Options = dataplane.Options

// Diagnostic is one structured failure-containment record: a recovered
// panic, quarantined device, budget trip, cancellation, or detected
// non-convergence, naming the pipeline stage (and device) it happened at.
// Snapshot.Diags accumulates them; DiagSummary renders them for humans.
type Diagnostic = diag.Diagnostic

// Diagnostic kinds (see Snapshot.Diags).
const (
	KindPanic          = diag.KindPanic
	KindQuarantine     = diag.KindQuarantine
	KindBudget         = diag.KindBudget
	KindCancelled      = diag.KindCancelled
	KindNonConvergence = diag.KindNonConvergence
	KindError          = diag.KindError
)

// DiagSummary renders diagnostics as a compact per-kind count plus one
// line each (stacks elided).
func DiagSummary(ds []Diagnostic) string { return diag.Summary(ds) }

// LoadDir reads every configuration file in a directory as one device.
func LoadDir(dir string) (*Snapshot, error) { return core.LoadDir(dir) }

// LoadDirContext is LoadDir under a context: the context's deadline or
// cancellation bounds parsing and every later stage the snapshot runs.
// Expiry degrades the snapshot to partial results with cancellation
// diagnostics instead of blocking (see Snapshot.Diags, Snapshot.Cancelled).
func LoadDirContext(ctx context.Context, dir string) (*Snapshot, error) {
	return core.LoadDirWithContext(ctx, core.DefaultPipeline(), dir)
}

// LoadText parses configuration texts keyed by filename or hostname.
// The dialect (IOS-style vs Junos-style) is auto-detected per file.
func LoadText(texts map[string]string) *Snapshot { return core.LoadText(texts) }

// LoadGenerated wraps a synthetic network from the generator suite.
func LoadGenerated(snap *netgen.Snapshot) *Snapshot { return core.LoadGenerated(snap) }

// CacheStats reports the shared pipeline's artifact-store counters
// (hits, misses, evictions) and per-stage wall times split cold/warm.
func CacheStats() pipeline.Stats { return core.CacheStats() }
