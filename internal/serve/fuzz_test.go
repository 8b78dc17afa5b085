package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// FuzzQueryBody feeds arbitrary bytes to POST /query on a stub-replica
// service. Whatever the body, the handler must not panic, must answer one of
// the four statuses it documents, and must leave the books balanced: at rest
// requests = served + shed + rejected + errors and offered = requests on the
// query route, and no request is still counted as arriving. The seed corpus
// (testdata/fuzz/FuzzQueryBody) holds a valid line, lines with deadlines, an
// empty body, truncated JSON, a wrong length, NaN and 1e999 values, a 65-KB
// line and blank lines only.
func FuzzQueryBody(f *testing.F) {
	pool, err := NewReplicaPool(1, func(int) (Replica, error) { return newFixedReplica(4), nil })
	if err != nil {
		f.Fatal(err)
	}
	s := NewService(pool, Config{MaxBatch: 4, MaxDelay: 50 * time.Microsecond, QueueDepth: 8})
	f.Cleanup(s.Close)
	h := NewHandler(s)

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusServiceUnavailable:
		default:
			t.Fatalf("status %d for body %q", rec.Code, body)
		}
		for _, r := range s.Metrics().Snapshot().Routes {
			if r.Requests != r.Served+r.Shed+r.Rejected+r.Errors || r.Offered != r.Requests {
				t.Fatalf("route %+v unbalanced at rest after body %q", r, body)
			}
		}
		if n := s.arriving.Load(); n != 0 {
			t.Fatalf("arriving = %d at rest after body %q", n, body)
		}
	})
}
