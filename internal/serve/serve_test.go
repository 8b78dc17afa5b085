package serve_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pelta/internal/dataset"
	"pelta/internal/models"
	"pelta/internal/serve"
	"pelta/internal/tensor"
)

// testModel builds a tiny deterministic ViT; every call with the same seed
// returns an independent copy with identical weights.
func testModel(seed int64) *models.ViT {
	return models.NewViT(models.SmallViT("ViT-L/16", 3, 8, 2), tensor.NewRNG(seed))
}

func testService(t *testing.T, replicas int, cfg serve.Config) *serve.Service {
	t.Helper()
	pool, err := serve.NewShieldedPool(replicas, 0, func(i int) (models.Model, error) {
		return testModel(5), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s := serve.NewService(pool, cfg)
	t.Cleanup(s.Close)
	return s
}

// TestServiceMatchesDirectInference serves concurrent shielded requests and
// checks every answer bit-identically matches a direct single-sample
// forward on the same weights — micro-batching must not change logits.
func TestServiceMatchesDirectInference(t *testing.T) {
	cfg := dataset.SynthCIFAR10(8, 9)
	cfg.Classes, cfg.TrainN, cfg.ValN = 3, 3, 24
	_, val := dataset.Generate(cfg)

	ref := testModel(5)
	s := testService(t, 2, serve.Config{MaxBatch: 4, MaxDelay: time.Millisecond})

	var wg sync.WaitGroup
	results := make([]*serve.Result, val.Len())
	errs := make([]error, val.Len())
	for i := 0; i < val.Len(); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = s.Submit("query", val.X.Slice(i), time.Time{})
		}(i)
	}
	wg.Wait()

	for i := 0; i < val.Len(); i++ {
		if errs[i] != nil {
			t.Fatalf("sample %d: %v", i, errs[i])
		}
		direct := models.Logits(ref, val.X.Slice(i).Reshape(1, 3, 8, 8))
		for j := 0; j < 3; j++ {
			if got, want := results[i].Logits.At(j), direct.At(0, j); got != want {
				t.Fatalf("sample %d class %d: served %v != direct %v (batch %d)",
					i, j, got, want, results[i].BatchSize)
			}
		}
	}
	snap := s.Metrics().Snapshot()
	if len(snap.Routes) != 1 || snap.Routes[0].Served != uint64(val.Len()) {
		t.Fatalf("metrics %+v, want %d served on one route", snap.Routes, val.Len())
	}
}

// TestClearPoolServes covers the -shield=false path.
func TestClearPoolServes(t *testing.T) {
	pool, err := serve.NewClearPool(2, func(i int) (models.Model, error) {
		return testModel(5), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s := serve.NewService(pool, serve.Config{MaxBatch: 2, MaxDelay: time.Millisecond})
	defer s.Close()

	ref := testModel(5)
	x := tensor.NewRNG(3).Normal(0.5, 0.1, 1, 3, 8, 8)
	tensor.ClampIn(x, 0, 1)
	res, err := s.Submit("query", x, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	direct := models.Logits(ref, x)
	for j := 0; j < 3; j++ {
		if res.Logits.At(j) != direct.At(0, j) {
			t.Fatalf("clear replica logits differ at %d", j)
		}
	}
}

// TestHTTPQueryEndpoint drives the NDJSON surface end to end: a stream of
// lines comes back in order with classes matching direct inference, and
// /metrics exposes the route counters.
func TestHTTPQueryEndpoint(t *testing.T) {
	cfg := dataset.SynthCIFAR10(8, 9)
	cfg.Classes, cfg.TrainN, cfg.ValN = 3, 3, 6
	_, val := dataset.Generate(cfg)

	s := testService(t, 1, serve.Config{MaxBatch: 4, MaxDelay: time.Millisecond})
	srv := httptest.NewServer(serve.NewHandler(s))
	defer srv.Close()

	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	for i := 0; i < val.Len(); i++ {
		if err := enc.Encode(serve.QueryRequest{X: append([]float32(nil), val.X.Slice(i).Data()...)}); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(srv.URL+"/query?logits=1", "application/x-ndjson", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	ref := testModel(5)
	dec := json.NewDecoder(resp.Body)
	for i := 0; i < val.Len(); i++ {
		var qr serve.QueryResponse
		if err := dec.Decode(&qr); err != nil {
			t.Fatalf("response line %d: %v", i, err)
		}
		if qr.Error != "" {
			t.Fatalf("line %d: %s", i, qr.Error)
		}
		direct := models.Logits(ref, val.X.Slice(i).Reshape(1, 3, 8, 8))
		want := tensor.ArgmaxRows(direct)[0]
		if qr.Class != want {
			t.Fatalf("line %d class %d, want %d", i, qr.Class, want)
		}
		if len(qr.Logits) != 3 || qr.Logits[want] != direct.At(0, want) {
			t.Fatalf("line %d logits %v do not match direct %v", i, qr.Logits, direct)
		}
	}

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var snap serve.Snapshot
	if err := json.NewDecoder(mresp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range snap.Routes {
		if r.Route == "query" && r.Served == uint64(val.Len()) {
			found = true
		}
	}
	if !found {
		t.Fatalf("metrics snapshot missing query route: %+v", snap.Routes)
	}

	// Malformed line → 400, not a hang or crash.
	bad, err := http.Post(srv.URL+"/query", "application/x-ndjson", strings.NewReader("{oops\n"))
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed line gave %d, want 400", bad.StatusCode)
	}
}
