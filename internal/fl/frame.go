package fl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
	"strings"
)

// The FL wire carries one message per frame:
//
//	frame    = length:uint32le body          length = len(body) ≤ maxFrame
//	body     = request | response | error
//	request  = 0x01 round:varint weights
//	response = 0x02 id:text samples:varint trainNS:varint note:text weights
//	error    = 0x03 msg:text
//	text     = n:uvarint n×byte
//	weights  = n:uvarint n×tensor
//	tensor   = name:text rank:uvarint rank×(dim:uvarint) count:uvarint count×float32
//
// A varint is zigzag-encoded (binary.AppendVarint), a float32 its
// little-endian IEEE bits. The reader accepts only the shortest varint
// encodings, so every frame it accepts re-encodes to the same bytes.
const (
	frameRequest  byte = 1
	frameResponse byte = 2
	frameError    byte = 3
)

// maxFrame bounds a frame body: 1 GiB, a quarter-billion float32 weights.
const maxFrame = 1 << 30

// firstChunk is the most readFrame allocates before any body byte arrived.
const firstChunk = 64 << 10

// Faults a FrameError names.
const (
	faultTruncated = "truncated"
	faultOversized = "oversized"
	faultOverflow  = "overflow"
	faultCount     = "count mismatch"
	faultTrailing  = "trailing bytes"
	faultKind      = "unknown kind"
	faultVarint    = "non-minimal varint"
)

// FrameError is a frame the FL wire reader refused: Fault names the check
// that failed (truncated, oversized, overflow, count mismatch, trailing
// bytes, unknown kind or non-minimal varint), Detail where.
type FrameError struct {
	Fault  string
	Detail string
}

func (e *FrameError) Error() string { return "fl: bad weight frame: " + e.Fault + ": " + e.Detail }

// RemoteError is an error a client reported in an error frame instead of
// an update.
type RemoteError struct {
	Client string
	Msg    string
}

func (e *RemoteError) Error() string { return "fl: client " + e.Client + ": " + e.Msg }

// message is one frame's content; kind says which of req, resp and err it
// carries.
type message struct {
	kind byte
	req  UpdateRequest
	resp UpdateResponse
	err  string
}

// appendFrame appends m to dst as one frame. It is the wire's only
// encoder: it sizes the frame first, so a dst with room allocates nothing.
// A weight set it cannot frame (see WireBytes) is an error.
func appendFrame(dst []byte, m *message) ([]byte, error) {
	n := 1
	switch m.kind {
	case frameRequest:
		ws, err := WireBytes(m.req.Weights)
		if err != nil {
			return dst, err
		}
		n += varintLen(int64(m.req.Round)) + ws
	case frameResponse:
		r := &m.resp
		ws, err := WireBytes(r.Weights)
		if err != nil {
			return dst, err
		}
		n += textLen(r.ClientID) + varintLen(int64(r.Samples)) + varintLen(r.TrainNS) + textLen(r.Note) + ws
	case frameError:
		n += textLen(m.err)
	default:
		return dst, fmt.Errorf("fl: encoding a frame of unknown kind %d", m.kind)
	}
	if n > maxFrame {
		return dst, fmt.Errorf("fl: a %d-byte frame exceeds the %d-byte limit", n, maxFrame)
	}
	dst = slices.Grow(dst, 4+n)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	dst = append(dst, m.kind)
	switch m.kind {
	case frameRequest:
		dst = binary.AppendVarint(dst, int64(m.req.Round))
		dst = appendWeights(dst, &m.req.Weights)
	case frameResponse:
		r := &m.resp
		dst = appendText(dst, r.ClientID)
		dst = binary.AppendVarint(dst, int64(r.Samples))
		dst = binary.AppendVarint(dst, r.TrainNS)
		dst = appendText(dst, r.Note)
		dst = appendWeights(dst, &r.Weights)
	case frameError:
		dst = appendText(dst, m.err)
	}
	return dst, nil
}

func appendText(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// appendWeights appends a weight set WireBytes accepted.
func appendWeights(dst []byte, w *Weights) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(w.Data)))
	for i, d := range w.Data {
		dst = appendText(dst, w.Names[i])
		dst = binary.AppendUvarint(dst, uint64(len(w.Shapes[i])))
		for _, dim := range w.Shapes[i] {
			dst = binary.AppendUvarint(dst, uint64(dim))
		}
		dst = binary.AppendUvarint(dst, uint64(len(d)))
		for _, v := range d {
			dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(v))
		}
	}
	return dst
}

// WireBytes returns the bytes w takes on the FL wire — its weights section
// of a frame, to the byte, computed without encoding: the §VI bandwidth
// cost of one model transfer. A frame adds its length prefix, kind and
// header fields (a few bytes, plus a response's client ID and note). Weights
// the wire cannot carry are an error: Names, Shapes and Data of different
// lengths, or a tensor whose length is not its shape's product.
func WireBytes(w Weights) (int, error) {
	if len(w.Names) != len(w.Data) || len(w.Shapes) != len(w.Data) {
		return 0, fmt.Errorf("fl: weights with %d names, %d shapes and %d tensors cannot be framed",
			len(w.Names), len(w.Shapes), len(w.Data))
	}
	n := uvarintLen(uint64(len(w.Data)))
	for i, d := range w.Data {
		count, ok := shapeCount(w.Shapes[i])
		if !ok || count != len(d) {
			return 0, fmt.Errorf("fl: weight %q of shape %v holds %d values", w.Names[i], w.Shapes[i], len(d))
		}
		n += textLen(w.Names[i]) + uvarintLen(uint64(len(w.Shapes[i])))
		for _, dim := range w.Shapes[i] {
			n += uvarintLen(uint64(dim))
		}
		n += uvarintLen(uint64(len(d))) + 4*len(d)
	}
	return n, nil
}

// shapeCount is the element count of dims: 0 if any dim is 0, otherwise
// their product. It fails on a negative dim or a product past MaxInt.
func shapeCount(dims []int) (int, bool) {
	p := product{n: 1}
	for _, d := range dims {
		if d < 0 {
			return 0, false
		}
		p.mul(uint64(d))
	}
	return p.count()
}

// product is an element count built one dim at a time, overflow-checked.
type product struct {
	n          uint64
	zero, over bool
}

func (p *product) mul(d uint64) {
	if d == 0 {
		p.zero = true
		return
	}
	hi, lo := bits.Mul64(p.n, d)
	if hi != 0 || lo > math.MaxInt {
		p.over = true
	}
	p.n = lo
}

func (p *product) count() (int, bool) {
	switch {
	case p.zero:
		return 0, true
	case p.over:
		return 0, false
	}
	return int(p.n), true
}

// uvarintLen, varintLen and textLen are the encoded sizes of a uvarint, a
// zigzag varint and a text field.
func uvarintLen(v uint64) int { return max(1, (bits.Len64(v)+6)/7) }
func varintLen(v int64) int   { return uvarintLen(uint64(v<<1) ^ uint64(v>>63)) }
func textLen(s string) int    { return uvarintLen(uint64(len(s))) + len(s) }

func frameFault(fault, format string, args ...any) *FrameError {
	return &FrameError{Fault: fault, Detail: fmt.Sprintf(format, args...)}
}

// readFrame reads one frame from r into buf's storage and returns its
// body. It grows the buffer only as the body arrives — by firstChunk or by
// the bytes already received, whichever is more — so a length prefix alone
// cannot make it allocate. io.EOF before the first byte is returned as is
// (the peer closed between frames); every other short read is a truncated
// FrameError, and a prefix past maxFrame an oversized one.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	buf = slices.Grow(buf[:0], 4)[:4]
	if _, err := io.ReadFull(r, buf); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return buf[:0], frameFault(faultTruncated, "length prefix")
		}
		return buf[:0], err
	}
	n := int(binary.LittleEndian.Uint32(buf))
	if n > maxFrame {
		return buf[:0], frameFault(faultOversized, "length prefix %d exceeds %d", n, maxFrame)
	}
	body := buf[:0]
	for len(body) < n {
		if len(body) == cap(body) {
			body = slices.Grow(body, min(n-len(body), max(len(body), firstChunk)))
		}
		got, err := io.ReadFull(r, body[len(body):min(n, cap(body))])
		body = body[:len(body)+got]
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return body[:0], frameFault(faultTruncated, "%d of %d body bytes", len(body), n)
			}
			return body[:0], err
		}
	}
	return body, nil
}

// parseFrame decodes a frame body. A first pass checks every field and
// totals the text, dims and float32 values; a second pass fills one string,
// one []int and one []float32 slab of exactly those sizes, so a message
// costs at most six allocations whatever it holds, and every length is
// checked against the bytes actually received before anything is allocated.
func parseFrame(body []byte) (message, error) {
	check := frameParser{b: body}
	check.message()
	if check.err != nil {
		return message{}, check.err
	}
	fill := frameParser{b: body, fill: true,
		dims: make([]int, check.nDims), floats: make([]float32, check.nFloats)}
	fill.blob.Grow(check.nText)
	return fill.message(), nil
}

// frameParser walks a frame body front to back. The checking pass records
// the first fault and the slab totals; the filling pass, run only on a body
// the checking pass accepted, cuts the message out of its slabs.
type frameParser struct {
	b    []byte
	err  *FrameError
	fill bool

	nText, nDims, nFloats int

	blob   strings.Builder // every text of the message, end to end
	dims   []int
	floats []float32
}

func (p *frameParser) fail(fault, format string, args ...any) {
	if p.err == nil {
		p.err = frameFault(fault, format, args...)
	}
	p.b = nil
}

func (p *frameParser) message() message {
	var m message
	if len(p.b) == 0 {
		p.fail(faultTruncated, "empty body")
		return m
	}
	m.kind, p.b = p.b[0], p.b[1:]
	switch m.kind {
	case frameRequest:
		m.req.Round = p.int("round")
		m.req.Weights = p.weights()
	case frameResponse:
		m.resp.ClientID = p.text("client ID")
		m.resp.Samples = p.int("samples")
		m.resp.TrainNS = p.varint("train ns")
		m.resp.Note = p.text("note")
		m.resp.Weights = p.weights()
	case frameError:
		m.err = p.text("error")
	default:
		p.fail(faultKind, "kind %d", m.kind)
	}
	if len(p.b) != 0 {
		p.fail(faultTrailing, "%d bytes after the message", len(p.b))
	}
	return m
}

func (p *frameParser) uvarint(what string) uint64 {
	v, n := binary.Uvarint(p.b)
	switch {
	case n == 0:
		p.fail(faultTruncated, "%s", what)
		return 0
	case n < 0:
		p.fail(faultOverflow, "%s varint exceeds 64 bits", what)
		return 0
	case n > 1 && p.b[n-1] == 0:
		p.fail(faultVarint, "%s", what)
		return 0
	}
	p.b = p.b[n:]
	return v
}

func (p *frameParser) varint(what string) int64 {
	u := p.uvarint(what)
	return int64(u>>1) ^ -int64(u&1)
}

func (p *frameParser) int(what string) int {
	v := p.varint(what)
	if int64(int(v)) != v {
		p.fail(faultOverflow, "%s %d exceeds int", what, v)
		return 0
	}
	return int(v)
}

// length reads a count of items at least size bytes each, refusing one the
// bytes left cannot hold.
func (p *frameParser) length(what string, size int) int {
	v := p.uvarint(what)
	if v > uint64(len(p.b)/size) {
		p.fail(faultTruncated, "%s %d exceeds the %d bytes left", what, v, len(p.b))
		return 0
	}
	return int(v)
}

func (p *frameParser) text(what string) string {
	n := p.length(what, 1)
	b := p.b[:n]
	p.b = p.b[n:]
	if !p.fill {
		p.nText += n
		return ""
	}
	start := p.blob.Len()
	p.blob.Write(b)
	return p.blob.String()[start:]
}

func (p *frameParser) weights() Weights {
	// A tensor takes at least three bytes: name length, rank and count.
	n := p.length("tensor count", 3)
	var w Weights
	if p.fill {
		w = Weights{Names: make([]string, n), Shapes: make([][]int, n), Data: make([][]float32, n)}
	}
	for i := 0; i < n && p.err == nil; i++ {
		name := p.text("name")
		rank := p.length("rank", 1)
		prod := product{n: 1}
		for d := 0; d < rank; d++ {
			v := p.uvarint("dim")
			if v > math.MaxInt {
				p.fail(faultOverflow, "tensor %d's dim %d exceeds int", i, v)
			}
			prod.mul(v)
			if p.fill {
				p.dims[d] = int(v) // p.dims starts at this tensor's dims
			}
		}
		want, ok := prod.count()
		count := p.uvarint("count")
		switch {
		case p.err != nil:
			return w
		case !ok:
			p.fail(faultOverflow, "tensor %d's dims product exceeds int", i)
			return w
		case count != uint64(want):
			p.fail(faultCount, "tensor %d holds %d values, its dims %d", i, count, want)
			return w
		case count > uint64(len(p.b)/4):
			p.fail(faultTruncated, "tensor %d's %d values exceed the %d bytes left", i, count, len(p.b))
			return w
		}
		src := p.b[:4*want]
		p.b = p.b[4*want:]
		if !p.fill {
			p.nDims += rank
			p.nFloats += want
			continue
		}
		w.Names[i] = name
		w.Shapes[i], p.dims = p.dims[:rank:rank], p.dims[rank:]
		dst := p.floats[:want:want]
		p.floats = p.floats[want:]
		for j := range dst {
			dst[j] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*j:]))
		}
		w.Data[i] = dst
	}
	return w
}
