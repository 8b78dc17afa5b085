// Package shieldtaint is the golden fixture for the shieldtaint rule.
// It models the repo's shield surface locally — the rule matches by type
// and method name, so the fixture exercises the same matchers production
// code hits: Enclave.Load sources, Token values, shield-named pools and
// buffers, fmt/ResponseWriter/Encoder/appendFrame/Pool.Put sinks, Scrub
// sanitizing.
package shieldtaint

import "fmt"

// Token is the enclave capability; any value of it is secret.
type Token struct{ secret [16]byte }

// Obj is an enclave-resident object.
type Obj struct{ data []float64 }

func (o *Obj) Data() []float64 { return o.data }

// Enclave mirrors tee.Enclave: Load is THE source of shielded contents.
type Enclave struct{ objects map[string]*Obj }

func (e *Enclave) Load(tok Token, key string) (*Obj, error) { return e.objects[key], nil }

// Tensor mirrors tensor.Tensor; Scrub is the sanitizer.
type Tensor struct{ data []float64 }

func (t *Tensor) Scrub() {
	for i := range t.data {
		t.data[i] = 0
	}
}
func (t *Tensor) Data() []float64 { return t.data }

// Pool mirrors tensor.Pool: shield-named Get results are sources, Put is
// the recycling sink.
type Pool struct{ free []*Tensor }

func (p *Pool) Get(shape ...int) *Tensor { return &Tensor{data: make([]float64, 4)} }
func (p *Pool) Put(t *Tensor)            { p.free = append(p.free, t) }

// ResponseWriter mirrors http.ResponseWriter.
type ResponseWriter struct{}

func (w *ResponseWriter) Write(b []byte) (int, error) { return len(b), nil }

// appendFrame mirrors fl's weight-frame encoder: whatever it appends is
// sent to the federation server.
func appendFrame(dst []byte, data []float64) []byte {
	for _, v := range data {
		dst = append(dst, byte(v))
	}
	return dst
}

// FrameLeak: a shielded tensor put on the FL wire.
func FrameLeak(e *Enclave, tok Token) []byte {
	obj, _ := e.Load(tok, "acc")
	return appendFrame(nil, obj.Data()) // want `shield-confidential data reaches the FL weight frame`
}

// BranchyLeak: taint flows into buf on one branch only; the may-analysis
// joins the branches and still reports the sink.
func BranchyLeak(e *Enclave, tok Token, fast bool) {
	obj, _ := e.Load(tok, "acc")
	var buf []float64
	if fast {
		buf = obj.Data()
	} else {
		buf = nil
	}
	fmt.Println(buf) // want `shield-confidential data reaches fmt output`
}

// LoopCarried: the range binding carries taint out of the loop through
// the accumulator.
func LoopCarried(e *Enclave, tok Token) {
	obj, _ := e.Load(tok, "acc")
	acc := 0.0
	for _, v := range obj.Data() {
		acc += v
	}
	fmt.Println(acc) // want `shield-confidential data reaches fmt output`
}

// ScrubbedPut: sanitizer-then-sink is clean — Scrub kills the taint
// before the buffer is recycled.
func ScrubbedPut(p *Pool, shieldPool *Pool) {
	t := shieldPool.Get(4)
	t.Scrub()
	p.Put(t)
}

// UnscrubbedPut: the same flow without the Scrub is the leak.
func UnscrubbedPut(shieldPool *Pool) {
	t := shieldPool.Get(4)
	shieldPool.Put(t) // want `shield-confidential data reaches Pool.Put`
}

// ScrubOnePath: scrubbed on one branch only — the unscrubbed path still
// reaches the sink.
func ScrubOnePath(shieldPool *Pool, big bool) {
	t := shieldPool.Get(8)
	if big {
		t.Scrub()
	}
	shieldPool.Put(t) // want `shield-confidential data reaches Pool.Put`
}

// emit routes its buffer parameter into the HTTP response; the summary
// records paramBit(1) reaching the sink, so tainted callers report at
// their call site instead.
func emit(w *ResponseWriter, buf []float64) {
	raw := make([]byte, len(buf))
	for i, v := range buf {
		raw[i] = byte(v)
	}
	w.Write(raw)
}

// HelperLeak: interprocedural flow — the leak happens inside emit, the
// report lands on the tainted call.
func HelperLeak(e *Enclave, tok Token, w *ResponseWriter) {
	obj, _ := e.Load(tok, "acc")
	emit(w, obj.Data()) // want `shield-confidential data reaches the HTTP response \(inside emit\)`
}

// ShieldName: a shield-marked identifier of buffer type is a source even
// without an enclave in sight.
func ShieldName() {
	shieldGrad := []float64{1, 2}
	fmt.Println(shieldGrad) // want `shield-confidential data reaches fmt output`
}

// TokenLeak: the capability itself must never be printed.
func TokenLeak(tok Token) {
	fmt.Printf("tok=%v\n", tok) // want `shield-confidential data reaches fmt output`
}

// CleanPool: an unshielded pool round-trip is fine.
func CleanPool(p *Pool, w *ResponseWriter) {
	t := p.Get(4)
	p.Put(t)
	fmt.Println("served")
	w.Write([]byte("ok"))
}

// Declassified: explicit declassification with a reasoned allow.
func Declassified(e *Enclave, tok Token) {
	obj, _ := e.Load(tok, "acc")
	//pelta:allow shieldtaint aggregate exported for FL by design
	fmt.Println(obj.Data())
}

// LenOnly: lengths and comparisons are not contents; builtins do not
// propagate taint.
func LenOnly(e *Enclave, tok Token, w *ResponseWriter) {
	obj, _ := e.Load(tok, "acc")
	w.Write([]byte{byte(len(obj.Data()))})
}
