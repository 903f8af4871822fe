package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"reflect"
	"testing"

	"softcache/internal/core"
	"softcache/internal/workloads"
)

// TestKernelFingerprint ties core.KernelVersion to the answers it names.
// The durable result cache keys stored answers by the version, so a
// change that alters any simulated statistic or any rendered response
// byte must bump it, or a stored answer of the old kernel is served as
// the new one's. The fingerprint hashes every uint64
// field of cache.Stats for each named config over each test-scale
// workload, then the bodies of a fixed simulate request (JSON and text)
// and a fixed sweep request.
func TestKernelFingerprint(t *testing.T) {
	h := sha256.New()
	names := core.ConfigNames()
	cfgs := make([]core.Config, len(names))
	for i, n := range names {
		cfg, err := core.ConfigByName(n)
		if err != nil {
			t.Fatal(err)
		}
		cfgs[i] = cfg
	}
	for _, w := range workloads.Names() {
		tr, err := workloads.Trace(w, workloads.ScaleTest, 1)
		if err != nil {
			t.Fatal(err)
		}
		results, err := core.Run(context.Background(), core.Job{Configs: cfgs}, tr.Reader())
		if err != nil {
			t.Fatal(err)
		}
		for i, res := range results {
			fmt.Fprintf(h, "%s %s\n", w, names[i])
			hashUint64s(h, reflect.ValueOf(res.Stats))
		}
	}

	_, ts := newTestServer(t, Config{})
	const simulate = `{"workload":"MV","scale":"test","seed":1,"configs":[{"name":"soft"},{"name":"standard","vline":64}]}`
	for _, req := range []struct{ path, body string }{
		{"/v1/simulate", simulate},
		{"/v1/simulate?format=text", simulate},
		{"/v1/sweep", `{"workload":"SpMV","scale":"test","seed":1,"config":"soft","x":"cache=4,8","y":"latency=10,20","metric":"amat"}`},
	} {
		code, body := post(t, ts.URL+req.path, req.body)
		if code != 200 {
			t.Fatalf("%s: status %d: %s", req.path, code, body)
		}
		fmt.Fprintf(h, "%s %d\n", req.path, len(body))
		h.Write(body)
	}

	if got := hex.EncodeToString(h.Sum(nil)); got != core.KernelFingerprint {
		t.Fatalf("the simulated statistics or the rendered responses changed: fingerprint %s, committed %s for %s.\n"+
			"Bump core.KernelVersion and set core.KernelFingerprint to %s in the same edit.",
			got, core.KernelFingerprint, core.KernelVersion, got)
	}
}

// hashUint64s writes every uint64 field of the struct v, nested structs
// included, in declaration order.
func hashUint64s(h hash.Hash, v reflect.Value) {
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Uint64:
			fmt.Fprintf(h, "%d\n", f.Uint())
		case reflect.Struct:
			hashUint64s(h, f)
		}
	}
}
