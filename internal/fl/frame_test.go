package fl

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"net"
	"runtime"
	"slices"
	"strings"
	"testing"

	"pelta/internal/models"
	"pelta/internal/tensor"
)

// frameOf prefixes body with its length.
func frameOf(body []byte) []byte {
	return append(binary.LittleEndian.AppendUint32(nil, uint32(len(body))), body...)
}

// smallWeights is a two-tensor set with a NaN payload and a negative zero,
// whose bits a frame must carry unchanged.
func smallWeights() Weights {
	return Weights{
		Names:  []string{"w", "b"},
		Shapes: [][]int{{2, 3}, {3}},
		Data: [][]float32{
			{1, -2, 0.5, math.Float32frombits(0x7fc00abc), float32(math.Copysign(0, -1)), 3e-39},
			{7, 8, 9},
		},
	}
}

// responseBody is the body of a response frame from "mallory" whose
// weights section is weights (pre-encoded, possibly malformed).
func responseBody(weights ...byte) []byte {
	b := []byte{frameResponse}
	b = appendText(b, "mallory")
	b = binary.AppendVarint(b, 4)
	b = binary.AppendVarint(b, 0)
	b = appendText(b, "")
	return append(b, weights...)
}

// hostileFrame is one reply a broken or malicious client can send in place
// of its update, and the check it must fail.
type hostileFrame struct {
	name  string
	reply []byte
	fault string // "" = the client's error frame, a *RemoteError
}

func hostileFrames(t testing.TB) []hostileFrame {
	t.Helper()
	w := smallWeights()
	valid, err := appendFrame(nil, &message{kind: frameResponse, resp: UpdateResponse{ClientID: "mallory", Samples: 4, Weights: w}})
	if err != nil {
		t.Fatal(err)
	}
	body := valid[4:]
	tensor := func(dims []uint64, count uint64, values int) []byte {
		b := binary.AppendUvarint(nil, 1)
		b = appendText(b, "w")
		b = binary.AppendUvarint(b, uint64(len(dims)))
		for _, d := range dims {
			b = binary.AppendUvarint(b, d)
		}
		b = binary.AppendUvarint(b, count)
		return append(b, make([]byte, 4*values)...)
	}
	errFrame, err := appendFrame(nil, &message{kind: frameError, err: "disk full"})
	if err != nil {
		t.Fatal(err)
	}
	request, err := appendFrame(nil, &message{kind: frameRequest, req: UpdateRequest{Round: 1, Weights: w}})
	if err != nil {
		t.Fatal(err)
	}
	return []hostileFrame{
		{"truncated length prefix", valid[:2], faultTruncated},
		{"truncated body", valid[:len(valid)-5], faultTruncated},
		{"truncated tensor", frameOf(body[:len(body)-5]), faultTruncated},
		{"tensor count past the body", frameOf(responseBody(binary.AppendUvarint(nil, 1<<40)...)), faultTruncated},
		{"oversized length prefix", append(binary.LittleEndian.AppendUint32(nil, maxFrame+1), 1, 2, 3), faultOversized},
		{"length prefix past the bytes sent", append(binary.LittleEndian.AppendUint32(nil, maxFrame), 1, 2, 3), faultTruncated},
		{"dims product overflow", frameOf(responseBody(tensor([]uint64{1 << 40, 1 << 40}, 0, 0)...)), faultOverflow},
		{"dim past int", frameOf(responseBody(tensor([]uint64{0, math.MaxUint64}, 0, 0)...)), faultOverflow},
		{"count not the product", frameOf(responseBody(tensor([]uint64{2, 3}, 5, 5)...)), faultCount},
		{"trailing bytes", frameOf(append(bytes.Clone(body), 0)), faultTrailing},
		{"unknown kind", frameOf([]byte{9}), faultKind},
		{"empty body", frameOf(nil), faultTruncated},
		{"a request for a reply", request, faultKind},
		{"non-minimal varint", frameOf([]byte{frameError, 0x80, 0x00}), faultVarint},
		{"error frame", errFrame, ""},
	}
}

// hostileClient answers the first request on lis with reply, then hangs up.
func hostileClient(t *testing.T, lis net.Listener, reply []byte) {
	conn, err := lis.Accept()
	if err != nil {
		return
	}
	defer conn.Close()
	if _, err := readFrame(conn, nil); err != nil {
		t.Errorf("hostile client reading the request: %v", err)
		return
	}
	conn.Write(reply)
}

// A garbage reply is a typed error from Conn.Update, and in a federation it
// costs that client the round as a dropped note: the honest client is
// merged and the engine keeps running.
func TestHostileFrames(t *testing.T) {
	train, _ := flDataset(t)
	shard := train.Shards(8)[0]
	tc := models.TrainConfig{Epochs: 1, BatchSize: 16, LR: 1e-3, Seed: 3}
	for _, hf := range hostileFrames(t) {
		t.Run(hf.name, func(t *testing.T) {
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer lis.Close()
			done := make(chan struct{})
			go func() {
				defer close(done)
				hostileClient(t, lis, hf.reply)
			}()
			conn, err := Dial(lis.Addr().String(), "mallory")
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()

			_, err = conn.Update(UpdateRequest{Round: 1, Weights: smallWeights()})
			var fe *FrameError
			var re *RemoteError
			switch {
			case hf.fault == "" && !errors.As(err, &re):
				t.Fatalf("err = %v, want a *RemoteError", err)
			case hf.fault == "" && re.Msg != "disk full":
				t.Fatalf("remote error %q, want the client's message", re.Msg)
			case hf.fault != "" && !errors.As(err, &fe):
				t.Fatalf("err = %v, want a *FrameError", err)
			case hf.fault != "" && fe.Fault != hf.fault:
				t.Fatalf("fault %q (%v), want %q", fe.Fault, err, hf.fault)
			}
			<-done

			done = make(chan struct{})
			go func() {
				defer close(done)
				hostileClient(t, lis, hf.reply)
			}()
			defer func() { <-done }()
			// A second connection: the first may have lost its framing.
			hostile, err := Dial(lis.Addr().String(), "mallory")
			if err != nil {
				t.Fatal(err)
			}
			defer hostile.Close()
			srv := sequentialServer(newTestModel(1), []Conn{
				Local(NewHonestClient("alice", newTestModel(2), shard, tc)),
				hostile,
			}, 1)
			res, err := srv.Run()
			if err != nil {
				t.Fatalf("a hostile reply ended the federation: %v", err)
			}
			if r := res[0]; r.Merged != 1 || r.Dropped != 1 || len(r.Notes) != 1 || !strings.HasPrefix(r.Notes[0], "mallory: dropped") {
				t.Fatalf("round merged %d, dropped %d, notes %q; want alice merged and mallory dropped", r.Merged, r.Dropped, r.Notes)
			}
		})
	}
}

// Writer output decodes to the same message, bit for bit, and re-encodes
// to the same bytes.
func TestFrameRoundTrip(t *testing.T) {
	w := smallWeights()
	for _, m := range []message{
		{kind: frameRequest, req: UpdateRequest{Round: -3, Weights: w}},
		{kind: frameResponse, resp: UpdateResponse{ClientID: "c1", Samples: 64, TrainNS: 1 << 40, Note: "sign-flip poison (γ=1)", Weights: w}},
		{kind: frameResponse, resp: UpdateResponse{ClientID: "empty"}},
		{kind: frameError, err: "boom"},
	} {
		frame, err := appendFrame(nil, &m)
		if err != nil {
			t.Fatal(err)
		}
		body, err := readFrame(bytes.NewReader(frame), nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := parseFrame(body)
		if err != nil {
			t.Fatal(err)
		}
		requireSameMessage(t, &m, &got)
		again, err := appendFrame(nil, &got)
		if err != nil || !bytes.Equal(again, frame) {
			t.Fatalf("kind %d re-encodes differently (err %v)", m.kind, err)
		}
	}
}

// requireSameMessage compares two messages field by field, weights by
// their float32 bits.
func requireSameMessage(t *testing.T, want, got *message) {
	t.Helper()
	if got.kind != want.kind || got.err != want.err || got.req.Round != want.req.Round ||
		got.resp.ClientID != want.resp.ClientID || got.resp.Samples != want.resp.Samples ||
		got.resp.TrainNS != want.resp.TrainNS || got.resp.Note != want.resp.Note {
		t.Fatalf("decoded header %+v, want %+v", *got, *want)
	}
	for _, pair := range [][2]Weights{{want.req.Weights, got.req.Weights}, {want.resp.Weights, got.resp.Weights}} {
		a, b := pair[0], pair[1]
		if len(a.Data) != len(b.Data) {
			t.Fatalf("decoded %d tensors, want %d", len(b.Data), len(a.Data))
		}
		for i := range a.Data {
			if a.Names[i] != b.Names[i] || !slices.Equal(a.Shapes[i], b.Shapes[i]) || len(a.Data[i]) != len(b.Data[i]) {
				t.Fatalf("tensor %d decoded as %q %v × %d, want %q %v × %d",
					i, b.Names[i], b.Shapes[i], len(b.Data[i]), a.Names[i], a.Shapes[i], len(a.Data[i]))
			}
		}
		requireBitEqual(t, a, b)
	}
}

// WireBytes is the exact size the writer gives a weight set, computed
// without encoding or allocating, and it refuses what the writer refuses.
func TestWireBytesMatchesFrame(t *testing.T) {
	for _, w := range []Weights{
		{},
		smallWeights(),
		{Names: []string{"empty"}, Shapes: [][]int{{0, 1 << 40}}, Data: [][]float32{{}}},
		Snapshot(newTestModel(1)),
		Snapshot(models.NewViT(models.SmallViT("vit-big", 4, 16, 4), tensor.NewRNG(2))),
	} {
		n, err := WireBytes(w)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(appendWeights(nil, &w)); got != n {
			t.Fatalf("WireBytes %d, the writer emits %d", n, got)
		}
		frame, err := appendFrame(nil, &message{kind: frameRequest, req: UpdateRequest{Round: 7, Weights: w}})
		if err != nil {
			t.Fatal(err)
		}
		// Length prefix, kind and a one-byte round.
		if len(frame) != 4+1+1+n {
			t.Fatalf("request frame of %d bytes around %d weight bytes", len(frame), n)
		}
		if a := testing.AllocsPerRun(20, func() { n, _ = WireBytes(w) }); a != 0 && !raceEnabled {
			t.Fatalf("WireBytes allocates %.0f times", a)
		}
	}
	for _, w := range []Weights{
		{Names: []string{"w"}, Data: [][]float32{{1}}},
		{Names: []string{"w"}, Shapes: [][]int{{2}}, Data: [][]float32{{1}}},
		{Names: []string{"w"}, Shapes: [][]int{{-1, -1}}, Data: [][]float32{{1}}},
		{Names: []string{"w"}, Shapes: [][]int{{1 << 40, 1 << 40}}, Data: [][]float32{{}}},
	} {
		if _, err := WireBytes(w); err == nil {
			t.Fatalf("WireBytes accepted unframeable weights %+v", w)
		}
		if _, err := appendFrame(nil, &message{kind: frameRequest, req: UpdateRequest{Weights: w}}); err == nil {
			t.Fatalf("the writer framed unframeable weights %+v", w)
		}
	}
}

// A warm encoder allocates nothing; a decode costs the six slabs of one
// message (the text, Names, Shapes, Data and the []int and []float32
// slabs), whatever the model size.
func TestFrameAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	m := message{kind: frameResponse, resp: UpdateResponse{ClientID: "c", Samples: 3, Note: "n", Weights: Snapshot(newTestModel(1))}}
	frame, err := appendFrame(nil, &m)
	if err != nil {
		t.Fatal(err)
	}
	buf := frame
	if n := testing.AllocsPerRun(20, func() { buf, _ = appendFrame(buf[:0], &m) }); n != 0 {
		t.Fatalf("warm frame encode allocates %.0f times", n)
	}
	r := bytes.NewReader(frame)
	var rb []byte
	if n := testing.AllocsPerRun(20, func() {
		r.Reset(frame)
		rb, _ = readFrame(r, rb)
	}); n != 0 {
		t.Fatalf("warm frame read allocates %.0f times", n)
	}
	if n := testing.AllocsPerRun(20, func() { _, _ = parseFrame(frame[4:]) }); n > 8 {
		t.Fatalf("frame decode allocates %.0f times a message, want ≤ 8", n)
	}
}

// readFrame grows its buffer with the bytes that arrive, not with the
// length prefix: a prefix claiming maxFrame with a few bytes behind it
// costs at most the first chunk.
func TestReadFrameAllocatesWhatArrives(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	lie := append(binary.LittleEndian.AppendUint32(nil, maxFrame), make([]byte, 100)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readFrame(bytes.NewReader(lie), nil)
	runtime.ReadMemStats(&after)
	var fe *FrameError
	if !errors.As(err, &fe) || fe.Fault != faultTruncated {
		t.Fatalf("err = %v, want a truncated frame", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 2*firstChunk {
		t.Fatalf("a %d-byte claim with 100 bytes behind it allocated %d bytes", maxFrame, grew)
	}
}
