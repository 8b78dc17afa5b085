package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
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

// FuzzDecodeQueryLine is the differential test of the /query fast path:
// whenever appendQueryLine takes a line, json.Unmarshal must take it too,
// with the same float32 bits per value and the same deadline (see
// checkFastPath). It is seeded with every line of the FuzzQueryBody corpus
// and with lines on either side of the fast path's edge: JSON number
// grammar ParseFloat alone would accept, float32 overflow and underflow,
// a key spelled otherwise or repeated, null, trailing bytes and padding.
func FuzzDecodeQueryLine(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzQueryBody", "*"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range seeds {
		body := readCorpusBytes(f, path)
		for _, line := range bytes.Split(body, []byte("\n")) {
			f.Add(line)
		}
	}
	for _, line := range []string{
		`{"x":[01]}`,
		`{"x":[1.]}`,
		`{"x":[.5]}`,
		`{"x":[+1]}`,
		`{"x":[1e39]}`,
		`{"x":[1.4e-46]}`,
		`{"x":[-0]}`,
		`{"X":[1]}`,
		`{"x":[1],"x":[2]}`,
		`{"x":null}`,
		`{"x":[1]} x`,
		" \t{ \"deadline_ms\" : 2.5e1 ,\r\n \"x\" : [ 0.5 , -1E-3 ] } ",
	} {
		f.Add([]byte(line))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		checkFastPath(t, line)
	})
}

// readCorpusBytes reads the one []byte value of a "go test fuzz v1" file.
func readCorpusBytes(f *testing.F, path string) []byte {
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	_, lit, _ := strings.Cut(strings.TrimSpace(string(data)), "\n")
	if !strings.HasPrefix(lit, "[]byte(") || !strings.HasSuffix(lit, ")") {
		f.Fatalf("%s: not a []byte corpus entry", path)
	}
	s, err := strconv.Unquote(lit[len("[]byte(") : len(lit)-1])
	if err != nil {
		f.Fatalf("%s: %v", path, err)
	}
	return []byte(s)
}
