package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"modelslicing/internal/tensor"
)

// sameFloats compares two vectors bit for bit (so -0 ≠ 0 and NaN = NaN).
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// FuzzParsePredict is the differential test of the request codec. The
// reference is what the handler ran before the codec existed —
// json.NewDecoder(body).Decode into a PredictRequest, which reads the first
// JSON value and ignores what follows it: same accept/reject, same error
// text, bit-identical floats. Whatever the single-pass scan accepts on its
// own must also be what json.Unmarshal (which rejects trailing bytes) makes
// of the whole body.
func FuzzParsePredict(f *testing.F) {
	for _, s := range []string{
		`{"input":[1,-0.5,2,0.3]}`,
		" {\n\t\"input\" : [ 1.5e-7 , -2E+3,\r\n 0 ] } \n",
		`{"input":[]}`,
		`{"input":[1,2`,     // truncated array
		`{"input":[1e400]}`, // out of range: encoding/json rejects it
		`{"input":[-0]}`,
		`{"input":[4.9e-324,1.7976931348623157e308,2.2250738585072014e-308]}`,
		`{"input":[01]}`, // leading zero
		`{"input":[+1]}`,
		`{"input":[0x10]}`,
		`{"input":[1_0]}`,
		`{"input":[1.]}`,
		`{"input":[.5]}`,
		`{"input":[1e]}`,
		`{"input":[-]}`,
		`{"input":[NaN]}`,
		`{"input":[1,]}`,
		`{"input":["1"]}`,
		`{"input":[[1]]}`,
		`{"input":null}`,
		`{"input":1}`,
		`{"Input":[1]}`,             // encoding/json matches keys case-insensitively
		`{"\u0069nput":[1]}`,        // escaped key
		`{"input":[1],"input":[2]}`, // duplicate: the last one wins
		`{"input":[1],"meta":{"a":[1,{"b":"]}"}]}}`, // nested unknown field
		`{"meta":1,"input":[3]}`,
		"\xef\xbb\xbf" + `{"input":[1]}`, // BOM
		`{"input":[1]} trailing garbage`,
		`{"input":[1]}{"input":[2]}`,
		`{"input":[1]}]`,
		`{}`, `[]`, `null`, ``, ` `, `{`, `{"input"`, `{"input":`, `not json`,
		`{"input":[1` + strings.Repeat("0", 400) + `]}`,
		`{"input":[0.` + strings.Repeat("0", 400) + `1]}`,
		`{"input":[` + strings.TrimSuffix(strings.Repeat("0.25,", 1e6), ",") + `]}`, // 10⁶ elements
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var want PredictRequest
		wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
		dst := []float64{7, 7, 7}
		got, gotErr := parsePredict(body, dst[:0])
		if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
			t.Fatalf("body %.80q: parsePredict error %v, encoding/json %v", body, gotErr, wantErr)
		}
		if wantErr == nil && !sameFloats(got, want.Input) {
			t.Fatalf("body %.80q: parsePredict %v, encoding/json %v", body, got, want.Input)
		}
		if in, ok := scanPredict(body, nil); ok {
			var whole PredictRequest
			if err := json.Unmarshal(body, &whole); err != nil {
				t.Fatalf("body %.80q: the scan accepted what json.Unmarshal rejects: %v", body, err)
			}
			if !sameFloats(in, whole.Input) || whole.Input == nil {
				t.Fatalf("body %.80q: scan %v, json.Unmarshal %v", body, in, whole.Input)
			}
		}
	})
}

// randomFloat draws from every part of the float64 line: any bit pattern
// that is finite, so subnormals, ±0 and the extremes of both exponent forms
// all come up.
func randomFloat(rng *rand.Rand) float64 {
	for {
		switch rng.Intn(8) {
		case 0:
			return math.Copysign(0, float64(rng.Intn(2))-0.5)
		case 1:
			return math.Float64frombits(rng.Uint64() & (1<<52 - 1)) // subnormal
		case 2:
			return rng.NormFloat64()
		}
		if v := math.Float64frombits(rng.Uint64()); !math.IsNaN(v) && !math.IsInf(v, 0) {
			return v
		}
	}
}

// TestAppendPredictResponseMatchesEncodingJSON pins the reply encoder to
// encoding/json: every float survives ParseFloat bit for bit, the bytes are
// exactly json.Encoder's, and json.Unmarshal gives the struct back.
func TestAppendPredictResponseMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		x := randomFloat(rng)
		text := appendJSONFloat(nil, x)
		back, err := strconv.ParseFloat(string(text), 64)
		if err != nil || math.Float64bits(back) != math.Float64bits(x) {
			t.Fatalf("%x printed as %s reads back as %x (%v)", math.Float64bits(x), text, math.Float64bits(back), err)
		}
		if end := numberEnd(text, 0); end != len(text) {
			t.Fatalf("%s is not a JSON number", text)
		}
	}
	for i := 0; i < 500; i++ {
		resp := PredictResponse{
			ArgMax: rng.Intn(1000) - 1, Rate: randomFloat(rng), LatencyMs: randomFloat(rng), SLOMiss: rng.Intn(2) == 0,
		}
		if n := rng.Intn(6); n > 0 {
			resp.Output = make([]float64, n-1) // length 0 is [], not null
			for j := range resp.Output {
				resp.Output[j] = randomFloat(rng)
			}
		}
		if rng.Intn(2) == 0 {
			resp.Stages = &PredictStages{randomFloat(rng), randomFloat(rng), randomFloat(rng), randomFloat(rng)}
		}
		got, err := appendPredictResponse([]byte("kept:"), &resp)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		want.WriteString("kept:")
		if err := json.NewEncoder(&want).Encode(resp); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("encoder wrote\n%s\nencoding/json writes\n%s", got, want.Bytes())
		}
		var back PredictResponse
		if err := json.Unmarshal(got[len("kept:"):], &back); err != nil {
			t.Fatal(err)
		}
		if !sameFloats(back.Output, resp.Output) || (back.Output == nil) != (resp.Output == nil) ||
			back.ArgMax != resp.ArgMax || back.Rate != resp.Rate || back.LatencyMs != resp.LatencyMs ||
			back.SLOMiss != resp.SLOMiss || (back.Stages == nil) != (resp.Stages == nil) ||
			(back.Stages != nil && *back.Stages != *resp.Stages) {
			t.Fatalf("round trip changed %+v into %+v", resp, back)
		}
	}
	for _, bad := range []PredictResponse{
		{Output: []float64{1, math.NaN()}},
		{Output: []float64{math.Inf(-1)}},
		{Output: []float64{}, Rate: math.Inf(1)},
		{Output: []float64{}, Stages: &PredictStages{SettleMs: math.NaN()}},
	} {
		if _, err := appendPredictResponse(nil, &bad); !errors.Is(err, errNonFinite) {
			t.Fatalf("%+v: err %v, want errNonFinite", bad, err)
		}
	}
}

// testWriter is the least a handler needs of a ResponseWriter, reusable
// across calls so that it adds nothing to an allocation count.
type testWriter struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (w *testWriter) Header() http.Header { return w.header }
func (w *testWriter) WriteHeader(s int)   { w.status = s }
func (w *testWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.body.Write(b)
}

// rewindBody is a request body that can be read again without allocating.
type rewindBody struct{ bytes.Reader }

func (*rewindBody) Close() error { return nil }

// TestWireAllocs is the allocation gate of the replica's wire path: the codec
// allocates nothing once its buffers are warm, and a whole /predict costs at
// most two allocations more than the Submit path it fronts (today one: the
// body-limit reader).
func TestWireAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under -race (sync.Pool sheds items)")
	}
	rng := rand.New(rand.NewSource(3))
	req := PredictRequest{Input: make([]float64, 768)}
	for i := range req.Input {
		req.Input[i] = rng.NormFloat64()
	}
	body, _ := json.Marshal(req)
	resp := PredictResponse{Output: []float64{0.1, -2.5e-9, 3, 4e25}, ArgMax: 2, Rate: 0.75, LatencyMs: 4.217}
	in, out := make([]float64, 0, 768), make([]byte, 0, 256)
	if n := testing.AllocsPerRun(100, func() {
		var err error
		if in, err = parsePredict(body, in); err != nil || len(in) != 768 {
			t.Fatalf("parse: %d elements, %v", len(in), err)
		}
		if out, err = appendPredictResponse(out[:0], &resp); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("codec allocates %v times per request, want 0", n)
	}

	s := liveServer(t)
	small, _ := json.Marshal(PredictRequest{Input: []float64{1, -0.5, 2, 0.3}})
	x := tensor.FromSlice([]float64{1, -0.5, 2, 0.3}, 4)
	submit := testing.AllocsPerRun(30, func() {
		if _, err := s.Predict(x); err != nil {
			t.Fatal(err)
		}
	})
	w := &testWriter{header: http.Header{}}
	rb := &rewindBody{}
	r := httptest.NewRequest(http.MethodPost, "/predict", nil)
	r.Body = rb
	whole := testing.AllocsPerRun(30, func() {
		rb.Reset(small)
		w.status = 0
		w.body.Reset()
		s.handlePredict(w, r)
		if w.status != http.StatusOK {
			t.Fatalf("status %d: %s", w.status, w.body.Bytes())
		}
	})
	// What a coordinator's poll costs the replica beyond net/http and the
	// JSON encoder: the t(r) rows and the CRC string.
	if n := testing.AllocsPerRun(100, func() { _ = s.State() }); n > 2 {
		t.Errorf("State() allocates %v times per poll, want ≤ 2", n)
	}
	t.Logf("/predict %v allocations, Server.Predict %v", whole, submit)
	if whole-submit > 2 {
		t.Errorf("/predict allocates %v times, Server.Predict %v: the wire path adds %v, want ≤ 2", whole, submit, whole-submit)
	}
}

// TestHTTPPredictBodyTooLarge: a body past the limit derived from the input
// shape is refused with 413 before it is parsed.
func TestHTTPPredictBodyTooLarge(t *testing.T) {
	s := liveServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := `{"input":[` + strings.Repeat("0.5, ", 4*32+4096) + `1]}`
	resp, err := http.Post(ts.URL+"/predict", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d (%s), want 413", resp.StatusCode, msg)
	}
	// Indentation alone does not trip it.
	body = `{"input":[` + strings.Repeat(" ", 2000) + `1,2,3,4]}`
	resp, err = http.Post(ts.URL+"/predict", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("padded body: status %d, want 200", resp.StatusCode)
	}
}

// TestHTTPPredictNonFiniteOutput: inputs that overflow the network to
// NaN/Inf used to produce a 200 with no body (the encoder's error was
// dropped); the reply must be a 500 that says so.
func TestHTTPPredictNonFiniteOutput(t *testing.T) {
	s := liveServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/predict", "application/json",
		strings.NewReader(`{"input":[1e308,-1e308,1e308,-1e308]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(out.Error, "not finite") {
		t.Fatalf("status %d error %q, want 500 naming the non-finite output", resp.StatusCode, out.Error)
	}
}

// TestPredictCancelKeepsInputBuffer: a client that leaves mid-window must not
// hand its input buffer to the next request while its query is still in the
// batcher. After each cancellation the abandoned query's tensor must stay
// untouched, and distinct from every tensor submitted after it, until its
// window has run.
func TestPredictCancelKeepsInputBuffer(t *testing.T) {
	s, clk := testServer(t, func(c *Config) {
		c.QueueFactor = 1000
		c.MaxBacklogWindows = 1000
	})
	post := func(ctx context.Context, in []float64) int {
		body, _ := json.Marshal(PredictRequest{Input: in})
		r := httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(body)).WithContext(ctx)
		w := httptest.NewRecorder()
		s.handlePredict(w, r)
		return w.Code
	}
	waitDepth := func(n int) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for s.QueueDepth() != n {
			if time.Now().After(deadline) {
				t.Fatalf("queue depth %d, want %d", s.QueueDepth(), n)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	for round := 0; round < 8; round++ {
		mine := []float64{float64(round), -1, 0.5, 2}
		ctx, cancel := context.WithCancel(context.Background())
		left := make(chan int, 1)
		go func() { left <- post(ctx, mine) }()
		waitDepth(1)
		cancel()
		if code := <-left; code != 499 {
			t.Fatalf("cancelled request answered %d, want 499", code)
		}
		s.mu.Lock()
		abandoned := s.pending[0].x
		s.mu.Unlock()

		const later = 6
		var wg sync.WaitGroup
		for i := 0; i < later; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if code := post(context.Background(), []float64{9, 9, 9, float64(i)}); code != http.StatusOK {
					t.Errorf("later request answered %d", code)
				}
			}()
		}
		waitDepth(1 + later)
		s.mu.Lock()
		for _, q := range s.pending[1:] {
			if q.x == abandoned || &q.x.Data[0] == &abandoned.Data[0] {
				t.Error("a later request was parsed into the buffer of a query still in the batcher")
			}
		}
		s.mu.Unlock()
		clk.Tick(time.Second)
		wg.Wait()
		if !sameFloats(abandoned.Data, mine) {
			t.Fatalf("abandoned query's input became %v, was %v", abandoned.Data, mine)
		}
	}
}
