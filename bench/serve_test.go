package main

import (
	"bytes"
	"io"
	"os"
	"testing"
	"time"
)

func TestScheduleAndBodiesFollowTheSeed(t *testing.T) {
	due := pacedSchedule(2000, pacedRate)
	if len(due) != 2000 || due[0] != 0 || due[1] != 5*time.Millisecond || due[1999] != 9995*time.Millisecond {
		t.Fatalf("schedule: %d entries, due[1]=%v due[1999]=%v", len(due), due[1], due[1999])
	}
	bodiesOf := func(seed int64) []body {
		fx, err := newFixture(smokeSizing, seed, false)
		if err != nil {
			t.Fatal(err)
		}
		lines, err := encodeLines(fx)
		if err != nil {
			t.Fatal(err)
		}
		return makeBodies(lines, seed, 0, bodyLines)
	}
	a, b, c := bodiesOf(7), bodiesOf(7), bodiesOf(8)
	if len(a) != valN/bodyLines {
		t.Fatalf("%d bodies, want %d", len(a), valN/bodyLines)
	}
	same := true
	for i := range a {
		if !bytes.Equal(a[i].data, b[i].data) {
			t.Fatalf("body %d differs between two builds of seed 7", i)
		}
		if bytes.Count(a[i].data, []byte{'\n'}) != bodyLines {
			t.Fatalf("body %d has %d lines", i, bytes.Count(a[i].data, []byte{'\n'}))
		}
		same = same && bytes.Equal(a[i].data, c[i].data)
	}
	if same {
		t.Fatal("seeds 7 and 8 produced the same bodies")
	}
}

// A reference class that is wrong for one sample must fail the serving
// check; the true reference must pass it.
func TestFlippedReferenceIsCaught(t *testing.T) {
	fx, err := newFixture(smokeSizing, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	e, err := buildServe(fx, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	p, err := e.run(150 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Wrong) != 0 || p.Failed != 0 || p.Attempted == 0 {
		t.Fatalf("true reference: wrong %v, failed %d of %d", p.Wrong, p.Failed, p.Attempted)
	}
	flipped := append([]int(nil), fx.refClass...)
	for i := range flipped {
		flipped[i] = (flipped[i] + 1) % classes
	}
	p, err = e.runAgainst(150*time.Millisecond, flipped)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Wrong) == 0 {
		t.Fatal("a wrong reference class went unnoticed")
	}
}

// BENCHMARK.json at the repo root is generated by -manifest; it must name
// exactly what this program measures.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, manifestJSON()) {
		t.Fatal("BENCHMARK.json is stale: regenerate it with `go run -C bench . -manifest > BENCHMARK.json`")
	}
}

func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload at -smoke sizing")
	}
	dir := t.TempDir()
	ok, err := runAll(options{workload: "all", seed: 5, trace: "both", smoke: true, traceDir: dir, jsonOut: dir + "/report.json"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("smoke run reported a wrong output or a failed operation")
	}
	r, err := readReport(dir + "/report.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Workloads) != len(workloads) {
		t.Fatalf("report holds %d workloads, want %d", len(r.Workloads), len(workloads))
	}
	for _, w := range r.Workloads {
		if len(w.EndToEnd) != len(endToEnd) || len(w.PerLayer) != len(perLayer) {
			t.Errorf("%s: %d end-to-end and %d per-layer metrics", w.Name, len(w.EndToEnd), len(w.PerLayer))
		}
		for name, v := range w.EndToEnd {
			if v.Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.Name, name, v.Value)
			}
		}
		sum := 0.0
		for _, k := range []string{"tensor.matmul_frac", "tensor.attention_frac", "tensor.conv_frac", "tensor.unattributed_frac"} {
			sum += w.PerLayer[k].Value
		}
		if sum < 1-1e-9 || sum > 1+1e-9 {
			t.Errorf("%s: kernel shares sum to %v", w.Name, sum)
		}
		if _, err := os.Stat(dir + "/" + w.Name + ".spans.ndjson"); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
}
