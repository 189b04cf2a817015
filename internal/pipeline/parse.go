package pipeline

import (
	"context"
	"sort"
	"time"

	"repro/internal/config"
	"repro/internal/diag"
	"repro/internal/faults"
	"repro/internal/vendors"
)

// ParseArtifact is the artifact of the per-device parse stage: one file's
// device model, the warnings its parse produced, and its content key (zero
// on a Disabled() pipeline). The model is shared between every snapshot
// whose config bytes match, so consumers must treat it as immutable (the
// simulator keeps all mutable per-run state in its own maps).
type ParseArtifact struct {
	Dev   *config.Device
	Warns []config.Warning
	Key   Key
}

// Parsed is the parse stage's output for one snapshot.
type Parsed struct {
	Net      *config.Network
	Warnings []config.Warning
	// DevKeys gives each device's parse-artifact key (hostname → Key) for
	// downstream stage keys.
	DevKeys map[string]Key
	// Files holds the artifact of every file parsed cleanly (file name →
	// artifact), for a later parse of an edit to reuse.
	Files map[string]ParseArtifact
	// Diags are the containment diagnostics: quarantined devices and
	// cancellation.
	Diags []diag.Diagnostic
}

// parseOne parses a single config text behind the "parse" fault point,
// which only the pipeline's parses pass.
func parseOne(name, text string, k Key) ParseArtifact {
	faults.Fire("parse", name)
	d, w := vendors.Parse(name, text)
	return ParseArtifact{Dev: d, Warns: w, Key: k}
}

// ParseCtx runs the per-device parse stage over texts (filename or
// hostname → config text). Files are parsed one at a time in sorted name
// order, so device ordering, same-hostname overwrite semantics, and
// warning order are deterministic; parsing is a small share of a
// snapshot's cost, and callers that want parallelism run whole snapshots
// or scenarios side by side.
//
// The context is checked before each device parse; once it expires the
// remaining devices are skipped and a single cancellation diagnostic is
// appended. A device whose parser panics is quarantined: it is excluded
// from the returned network, its artifact is never cached, and the
// returned diagnostics carry the panic (with stack) plus a quarantine
// record naming the device.
//
// base maps file names to artifacts of the same text, taken from the
// snapshot an edit derives from; such a file is not parsed again and keeps
// its model pointer. On a caching pipeline it still takes its store
// lookup, and a miss stores the base's artifact, so the store sees the
// lookups and insertions a parse would cause.
func (p *Pipeline) ParseCtx(ctx context.Context, texts map[string]string, base map[string]ParseArtifact) Parsed {
	start := time.Now()
	names := make([]string, 0, len(texts))
	for n := range texts {
		names = append(names, n)
	}
	sort.Strings(names)

	out := Parsed{
		Net:     config.NewNetwork(),
		DevKeys: make(map[string]Key, len(names)),
		Files:   make(map[string]ParseArtifact, len(names)),
	}
	var missed []ParseArtifact
	warm := len(names) > 0
	for _, n := range names {
		if ctx.Err() != nil {
			out.Diags = append(out.Diags, diag.Diagnostic{
				Stage:   diag.StageParse,
				Kind:    diag.KindCancelled,
				Message: "parse stage cancelled before all devices were parsed",
			})
			warm = false
			break
		}
		var a ParseArtifact
		hit := false
		if d := diag.Capture(diag.StageParse, n, func() {
			a, hit = p.parseFile(n, texts[n], base)
		}); d != nil {
			out.Diags = append(out.Diags, *d, diag.Diagnostic{
				Stage:   diag.StageParse,
				Device:  n,
				Kind:    diag.KindQuarantine,
				Message: "device quarantined: configuration excluded from the snapshot",
			})
			warm = false
			continue
		}
		out.Net.Devices[a.Dev.Hostname] = a.Dev
		out.DevKeys[a.Dev.Hostname] = a.Key
		out.Warnings = append(out.Warnings, a.Warns...)
		out.Files[n] = a
		warm = warm && hit
		if p.store != nil && !hit {
			missed = append(missed, a)
		}
	}
	// The misses are stored after every lookup, so that they cannot evict
	// an entry this parse has yet to look up.
	for _, a := range missed {
		p.store.Put(a.Key, a)
	}
	p.record(&p.parse, start, warm)
	return out
}

// parseFile returns the artifact of file name and whether the store held
// it, reusing name's base artifact if it has one. It stores nothing.
func (p *Pipeline) parseFile(name, text string, base map[string]ParseArtifact) (ParseArtifact, bool) {
	a, reuse := base[name]
	if p.store == nil {
		if !reuse {
			a = parseOne(name, text, Key{})
		}
		return a, false
	}
	if !reuse {
		a.Key = keyOf([]byte("parse"), []byte(name), []byte(text))
	}
	v, hit := p.store.Get(a.Key)
	switch {
	case reuse:
		return a, hit
	case hit:
		return v.(ParseArtifact), true
	}
	return parseOne(name, text, a.Key), false
}
