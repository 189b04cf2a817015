package pipeline

import (
	"context"
	"testing"

	"repro/internal/diag"
	"repro/internal/faults"
)

// TestParseWorkerPanicQuarantinesDevice injects a panic into one
// device's parse through the "parse" fault point: the per-device
// diag.Capture must contain it, quarantine just that device (no model, no
// key, no artifact, nothing cached), and let the rest of the snapshot
// load normally.
func TestParseWorkerPanicQuarantinesDevice(t *testing.T) {
	defer faults.Activate(faults.New().
		Enable("parse", "b.cfg", faults.Rule{Kind: faults.Panic}))()

	p := New(Config{StoreCapacity: 16})
	texts := map[string]string{
		"a.cfg": "hostname a\n",
		"b.cfg": "hostname b\n",
		"c.cfg": "hostname c\n",
	}
	r := p.ParseCtx(context.Background(), texts, nil)
	net, keys, diags := r.Net, r.DevKeys, r.Diags

	if len(net.Devices) != 2 {
		t.Fatalf("got %d devices, want 2 (b quarantined): %v", len(net.Devices), net.DeviceNames())
	}
	for _, name := range []string{"a", "c"} {
		if _, ok := net.Devices[name]; !ok {
			t.Errorf("device %s missing from snapshot", name)
		}
		if _, ok := keys[name]; !ok {
			t.Errorf("device %s missing from artifact keys", name)
		}
	}
	if _, ok := net.Devices["b"]; ok {
		t.Error("panicking device b was not excluded from the snapshot")
	}
	if _, ok := keys["b"]; ok {
		t.Error("panicking device b has an artifact key")
	}
	if _, ok := r.Files["b.cfg"]; ok {
		t.Error("panicking device b has a parse artifact")
	}
	if st := p.Stats().Store; st.Entries != 2 {
		t.Errorf("store holds %d entries, want 2 (b never cached)", st.Entries)
	}

	var sawPanic, sawQuarantine bool
	for _, d := range diags {
		if d.Device != "b.cfg" {
			t.Errorf("diagnostic for unexpected device %q: %+v", d.Device, d)
			continue
		}
		switch d.Kind {
		case diag.KindPanic:
			sawPanic = true
		case diag.KindQuarantine:
			sawQuarantine = true
		}
	}
	if !sawPanic || !sawQuarantine {
		t.Errorf("diagnostics missing panic/quarantine pair: %+v", diags)
	}
}
