package server_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/server"
)

// FuzzHandler sends arbitrary load bodies, edit bodies, and reachability
// and service-reachable query strings through the full handler of a
// server holding one small snapshot. The contract: never a 500 (no panic
// escapes a handler), every 4xx carries the usage exit code, and no
// input trips a breaker or answers with a contained panic: no fault
// point is armed, so a recovered panic is a bug, not a degraded answer.
func FuzzHandler(f *testing.F) {
	srv, err := server.New(server.Config{Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	h := srv.Handler()
	serve := func(method, target, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
		return rec
	}
	load, _ := json.Marshal(map[string]any{"configs": smallFabric()})
	if rec := serve(http.MethodPut, "/snapshots/s", string(load)); rec.Code != http.StatusOK {
		f.Fatalf("load: %d %s", rec.Code, rec.Body)
	}

	f.Add(uint8(0), `{"configs":{"r1":"hostname r1\ninterface e0\n ip address 10.9.0.1 255.255.255.0\n"}}`)
	f.Add(uint8(0), `{"configs":{}}`)
	f.Add(uint8(1), `{"as":"t","changes":{"sm-p01-tor01":""}}`)
	f.Add(uint8(1), `{"as":"s","changes":{}}`)
	f.Add(uint8(2), "src=sm-p01-tor01/host1&dst=10.0.0.0/24")
	f.Add(uint8(2), "src=&timeout=1ns")
	f.Add(uint8(3), "dst=10.0.0.0/24&port=443&proto=6&client=sm-p01-tor01/host1")
	f.Add(uint8(3), "dst=10.0.0.0/33&port=99999&timeout=-1s")
	f.Add(uint8(2), "src=nope/eth0")
	f.Add(uint8(3), "dst=10.0.0.0/24&client=nope/eth0")
	f.Add(uint8(2), "src=sm-p01-tor01")
	f.Fuzz(func(t *testing.T, kind uint8, payload string) {
		var rec *httptest.ResponseRecorder
		switch kind % 4 {
		case 0:
			rec = serve(http.MethodPut, "/snapshots/f", payload)
		case 1:
			rec = serve(http.MethodPost, "/snapshots/s/edit", payload)
		default:
			path := "/snapshots/s/reachability"
			if kind%4 == 3 {
				path = "/snapshots/s/service-reachable"
			}
			req := httptest.NewRequest(http.MethodGet, path, nil)
			req.URL.RawQuery = payload
			rec = httptest.NewRecorder()
			h.ServeHTTP(rec, req)
		}
		if rec.Code == http.StatusInternalServerError {
			t.Fatalf("kind %d %q: 500 %s", kind%4, payload, rec.Body)
		}
		if rec.Code >= 400 && rec.Code < 500 && rec.Header().Get(server.ExitCodeHeader) != "2" {
			t.Fatalf("kind %d %q: %d with exit code %q", kind%4, payload, rec.Code,
				rec.Header().Get(server.ExitCodeHeader))
		}
		var resp struct{ Diags []string }
		_ = json.Unmarshal(rec.Body.Bytes(), &resp)
		for _, d := range resp.Diags {
			if strings.HasPrefix(d, "[panic]") {
				t.Fatalf("kind %d %q: contained panic %s", kind%4, payload, d)
			}
		}
		if trips := srv.Metrics().BreakerTrips; trips > 0 {
			t.Fatalf("kind %d %q: %d breaker trips", kind%4, payload, trips)
		}

		// Keep the server at its one snapshot: drop whatever a load or an
		// edit published.
		var list struct{ Snapshots []string }
		if err := json.NewDecoder(bytes.NewReader(serve(http.MethodGet, "/snapshots", "").Body.Bytes())).Decode(&list); err != nil {
			t.Fatal(err)
		}
		for _, n := range list.Snapshots {
			if n != "s" {
				srv.DropSnapshot(n)
			}
		}
	})
}
