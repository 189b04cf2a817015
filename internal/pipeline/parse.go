package pipeline

import (
	"context"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/config"
	"repro/internal/diag"
	"repro/internal/faults"
	"repro/internal/vendors/cisco"
	"repro/internal/vendors/juniper"
)

// DetectDialect guesses the configuration dialect from text: Junos
// configurations are "set ..." command lists, IOS ones are hierarchical.
func DetectDialect(text string) string {
	for _, line := range strings.Split(text, "\n") {
		t := strings.TrimSpace(line)
		if t == "" || strings.HasPrefix(t, "#") || strings.HasPrefix(t, "!") {
			continue
		}
		if strings.HasPrefix(t, "set ") {
			return "junos"
		}
		return "ios"
	}
	return "ios"
}

// parsed is the artifact of the per-device parse stage. The device model
// is shared between every snapshot whose config bytes match, so consumers
// must treat it as immutable (the simulator keeps all mutable per-run
// state in its own maps).
type parsed struct {
	dev   *config.Device
	warns []config.Warning
}

// parseOne parses a single config text, applying the historic hostname
// fallback (file basename without extension) before the artifact is
// cached, so the cached model is complete.
func parseOne(name, text string) parsed {
	faults.Fire("parse", name)
	var d *config.Device
	var w []config.Warning
	switch DetectDialect(text) {
	case "junos":
		d, w = juniper.Parse(text)
	default:
		d, w = cisco.Parse(text)
	}
	if d.Hostname == "" {
		d.Hostname = strings.TrimSuffix(filepath.Base(name), filepath.Ext(name))
	}
	return parsed{dev: d, warns: w}
}

// Parse runs the per-device parse stage over texts (filename or hostname
// → config text). Devices parse in parallel — each file is independent —
// but the network is assembled in sorted name order, so device ordering,
// same-hostname overwrite semantics, and warning order are deterministic
// and identical to a serial run. The returned map gives each device's
// parse-artifact key (hostname → Key) for downstream stage keys.
//
// A panicking parser quarantines its device instead of crashing the run:
// the device is excluded from the returned network and the failure is
// reported via ParseCtx's diagnostics. Parse keeps the historic signature
// by dropping those diagnostics; callers that need them use ParseCtx.
func (p *Pipeline) Parse(texts map[string]string) (*config.Network, []config.Warning, map[string]Key) {
	net, warns, devKeys, _ := p.ParseCtx(context.Background(), texts)
	return net, warns, devKeys
}

// ParseCtx is Parse with cooperative cancellation and failure containment.
// The context is checked before each device parse; once it expires the
// remaining devices are skipped and a single cancellation diagnostic is
// appended. A device whose parser panics is quarantined: it is excluded
// from the returned network, its artifact is never cached, and the
// returned diagnostics carry the panic (with stack) plus a quarantine
// record naming the device.
func (p *Pipeline) ParseCtx(ctx context.Context, texts map[string]string) (*config.Network, []config.Warning, map[string]Key, []diag.Diagnostic) {
	start := time.Now()
	names := make([]string, 0, len(texts))
	for n := range texts {
		names = append(names, n)
	}
	sort.Strings(names)

	keys := make([]Key, len(names))
	results := make([]parsed, len(names))
	hits := make([]bool, len(names))
	panics := make([]*diag.Diagnostic, len(names))
	skipped := make([]bool, len(names))
	work := func(i int) {
		n := names[i]
		if ctx.Err() != nil {
			skipped[i] = true
			return
		}
		text := texts[n]
		if d := diag.Capture(diag.StageParse, n, func() {
			if p.store != nil {
				k := keyOf([]byte("parse"), []byte(n), []byte(text))
				keys[i] = k
				if v, ok := p.store.Get(k); ok {
					results[i] = v.(parsed)
					hits[i] = true
					return
				}
				results[i] = parseOne(n, text)
				p.store.Put(k, results[i])
				return
			}
			results[i] = parseOne(n, text)
		}); d != nil {
			panics[i] = d
			results[i] = parsed{} // drop any half-built model
		}
	}

	workers := p.parseWorkers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 1 {
		workers = 1
	}
	if workers > len(names) {
		workers = len(names)
	}
	if workers <= 1 {
		for i := range names {
			work(i)
		}
	} else {
		var cursor atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(cursor.Add(1)) - 1
					if i >= len(names) {
						return
					}
					// work() already captures parser panics per device;
					// this outer capture contains harness bugs (cache
					// type assertions, index bookkeeping) that would
					// otherwise escape the goroutine and kill the
					// process instead of quarantining one device.
					if d := diag.Capture(diag.StageParse, names[i], func() {
						faults.Fire("parse-worker", names[i])
						work(i)
					}); d != nil {
						panics[i] = d
					}
				}
			}()
		}
		wg.Wait()
	}

	net := config.NewNetwork()
	var warns []config.Warning
	var diags []diag.Diagnostic
	devKeys := make(map[string]Key, len(names))
	warm := len(names) > 0
	cancelled := false
	for i := range names {
		if skipped[i] {
			cancelled = true
			warm = false
			continue
		}
		if d := panics[i]; d != nil {
			diags = append(diags, *d, diag.Diagnostic{
				Stage:   diag.StageParse,
				Device:  names[i],
				Kind:    diag.KindQuarantine,
				Message: "device quarantined: configuration excluded from the snapshot",
			})
			warm = false
			continue
		}
		r := results[i]
		net.Devices[r.dev.Hostname] = r.dev
		devKeys[r.dev.Hostname] = keys[i]
		warns = append(warns, r.warns...)
		if !hits[i] {
			warm = false
		}
	}
	if cancelled {
		diags = append(diags, diag.Diagnostic{
			Stage:   diag.StageParse,
			Kind:    diag.KindCancelled,
			Message: "parse stage cancelled before all devices were parsed",
		})
	}
	p.record(&p.parse, start, warm)
	return net, warns, devKeys, diags
}
