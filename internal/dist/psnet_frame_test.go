package dist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"tbd/internal/layers"
	"tbd/internal/optim"
)

// paramLayout returns the tensor count and total elements of params.
func paramLayout(params []*layers.Param) (count, numel int) {
	for _, p := range params {
		numel += p.Value.Numel()
	}
	return len(params), numel
}

func TestPSWireBytesReflectCompression(t *testing.T) {
	// The PS counterpart of TestRingWireBytesReflectCompression, pinned
	// exactly: a push moves its header, the tensor lengths and the
	// payload at the encoding's bytes per element (int8 adds one scale
	// per tensor) and nothing else; the reply is always fp32 weights.
	s, master := startPS(t, 1, 96)
	c, err := DialPS(s.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	count, numel := paramLayout(master.Params())
	grads := GradSlices(master.Params())
	wantIn := int64(psReplyHeader + 4*count + 4*numel)
	for _, tc := range []struct {
		comp    Compression
		wantOut int64
	}{
		{CompressNone, int64(psReqHeader + 4*count + 4*numel)},
		{CompressFP16, int64(psReqHeader + 4*count + 2*numel)},
		{CompressInt8, int64(psReqHeader + 4*count + 4*count + numel)},
	} {
		in0, out0 := c.WireBytes()
		if _, _, err := c.Push(0, tc.comp, grads); err != nil {
			t.Fatal(err)
		}
		in1, out1 := c.WireBytes()
		if in, out := in1-in0, out1-out0; in != wantIn || out != tc.wantOut {
			t.Errorf("%v push moved in=%d out=%d wire bytes, want in=%d out=%d", tc.comp, in, out, wantIn, tc.wantOut)
		}
	}
}

// reqFrame builds a raw request header with the given tensor lengths.
func reqFrame(kind byte, rank int32, count uint32, lens ...uint32) []byte {
	b := []byte{kind}
	b = binary.LittleEndian.AppendUint32(b, uint32(rank))
	b = binary.LittleEndian.AppendUint32(b, count)
	for _, n := range lens {
		b = binary.LittleEndian.AppendUint32(b, n)
	}
	return b
}

func TestPSFrameErrorsNameKindAndOffset(t *testing.T) {
	// Frames over the server's bound, or of an unknown kind, are answered
	// with an error naming the kind and byte offset; then the handler
	// exits and closes the connection, and nothing leaks.
	before := runtime.NumGoroutine()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	master := mlpConstructor(21)()
	s := ServePS(l, master.Params(), optim.NewSGD(0.1), 1)
	count, numel := paramLayout(master.Params())

	for _, tc := range []struct {
		name  string
		frame []byte
		want  string
	}{
		{"unknown kind", []byte{0x09}, "kind=0x09 offset=0"},
		{"zero kind", make([]byte, psReqHeader), "kind=0x00 offset=0"},
		{"pull with tensors", reqFrame(kindPull, 0, 1, 1), "kind=pull offset=5"},
		{"tensor count over bound", reqFrame(kindPush, 0, uint32(count+1)), "kind=push offset=5"},
		{"tensor count wraps", reqFrame(kindPush8, 0, math.MaxUint32), "kind=push8 offset=5"},
		{"elements over bound", reqFrame(kindPush16, 0, 1, uint32(numel+1)), "kind=push16 offset=9"},
		{"later tensor over bound", reqFrame(kindPush, 0, 2, uint32(numel), 1), "kind=push offset=13"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", s.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if err := conn.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
				t.Fatal(err)
			}
			if _, err := conn.Write(tc.frame); err != nil {
				t.Fatal(err)
			}
			var b wireBuf
			rep, err := readReply(conn, &b, psMaxReplyTensors, psMaxReplyElems)
			if err != nil {
				t.Fatalf("reading the error reply: %v", err)
			}
			if !strings.Contains(rep.err, tc.want) || rep.weights != nil {
				t.Fatalf("reply error %q (%d tensors), want one naming %q and no weights", rep.err, len(rep.weights), tc.want)
			}
			if n, err := conn.Read(make([]byte, 1)); n != 0 || !errors.Is(err, io.EOF) {
				t.Fatalf("connection still open after a fatal frame: read %d bytes, err %v", n, err)
			}
		})
	}

	// Every handler exits once its connection closes.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		live := len(s.conns)
		s.mu.Unlock()
		if live == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d connection handlers still running after fatal frames", live)
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("goroutines leaked: %d before, %d after Close", before, g)
	}
}

// readSeed returns the input of a one-value []byte fuzz corpus file.
func readSeed(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 || lines[0] != "go test fuzz v1" {
		t.Fatalf("%s: not a one-value fuzz corpus file", path)
	}
	lit, ok := strings.CutPrefix(lines[1], "[]byte(")
	if lit, ok = strings.CutSuffix(lit, ")"); !ok {
		t.Fatalf("%s: value is not a []byte literal", path)
	}
	s, err := strconv.Unquote(lit)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(s)
}

func TestPSRequestSeedsDecode(t *testing.T) {
	// The FuzzPSRequest seeds only exercise what their names say if they
	// are framed in the current header layout: a seed in an old layout
	// still runs, silently misparsed. Pin each seed's frame-layer
	// decode: the valid ones decode frame by frame to their end, the
	// malformed ones stop at their named error.
	type frame struct {
		kind        byte
		rank, count int
	}
	const dir = "testdata/fuzz/FuzzPSRequest"
	cases := []struct {
		seed   string
		frames []frame // decoded before the stream ends or fails
		err    string  // "" = clean EOF after the frames
	}{
		{"pull", []frame{{kindPull, 0, 0}}, ""},
		{"push_fp16", []frame{{kindPush16, 0, 4}}, ""},
		{"push_fp32_ranked", []frame{{kindPush, 0, 4}}, ""},
		{"push_int8_ranked", []frame{{kindPush8, 0, 4}}, ""},
		{"pull_then_push", []frame{{kindPull, 0, 0}, {kindPush, 0, 4}}, ""},
		{"wrong_shape_then_pull", []frame{{kindPush, 0, 1}, {kindPull, 0, 0}}, ""},
		{"rank_twice", []frame{{kindPush, 1, 4}}, ""},
		{"oversized_count", nil, "ps frame kind=push offset=5: tensor count 1048576 over bound 4"},
		{"oversized_elems", nil, "ps frame kind=push offset=9: tensor 0 has 1073741824 elements"},
		{"unknown_kind", nil, "ps frame kind=0x7f offset=0: unknown request kind"},
		{"truncated", nil, io.ErrUnexpectedEOF.Error()},
	}
	// Every committed seed has an entry.
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(cases) {
		t.Fatalf("%d seed files in %s, %d in this table", len(files), dir, len(cases))
	}
	for _, tc := range cases {
		t.Run(tc.seed, func(t *testing.T) {
			s := fuzzPSServer()
			c := newPSConn(struct {
				io.Reader
				io.Writer
			}{bytes.NewReader(readSeed(t, filepath.Join(dir, tc.seed))), io.Discard})
			var got []frame
			for {
				req, err := s.readRequest(c)
				if err != nil {
					if tc.err == "" && err != io.EOF || tc.err != "" && !strings.HasPrefix(err.Error(), tc.err) {
						t.Fatalf("after %d frames: %v, want %q", len(got), err, tc.err)
					}
					break
				}
				got = append(got, frame{req.kind, req.rank, len(req.grads)})
			}
			if !reflect.DeepEqual(got, tc.frames) {
				t.Fatalf("decoded frames %+v, want %+v", got, tc.frames)
			}
		})
	}
}

// fuzzPSServer is a 2-worker sync server (no listener) in mid-round:
// rank 1's push is already buffered, so any well-formed push from rank
// 0 completes a round instead of blocking.
func fuzzPSServer() *PSServer {
	params := mlpConstructor(33)().Params()
	s := newPSServer(params, optim.NewSGD(0.1), 2)
	s.rankGrads[1] = paramBufs(params)
	for i, g := range s.rankGrads[1] {
		for j := range g {
			g[j] = float32(i+1) * 0.01 * float32(j%7-3)
		}
	}
	s.rankIn[1] = true
	s.rankSeen = 1
	return s
}

// psState is the server state a rejected frame must leave untouched,
// with floats as bit patterns so NaNs compare.
type psState struct {
	params, pending [][]uint32
	rank            [][][]uint32 // per rank; empty until allocated
	rankIn          []bool
	rankSeen        int
	version         int
	clocks          []int
}

func f32Bits(ts [][]float32) [][]uint32 {
	out := make([][]uint32, len(ts))
	for i, t := range ts {
		out[i] = make([]uint32, len(t))
		for j, v := range t {
			out[i][j] = math.Float32bits(v)
		}
	}
	return out
}

func capturePSState(s *PSServer) psState {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := psState{
		pending:  f32Bits(s.pending),
		rankIn:   append([]bool(nil), s.rankIn...),
		rankSeen: s.rankSeen,
		version:  s.version,
		clocks:   append([]int(nil), s.clocks...),
	}
	for _, p := range s.params {
		st.params = append(st.params, f32Bits([][]float32{p.Value.Data()})[0])
	}
	for _, g := range s.rankGrads {
		st.rank = append(st.rank, f32Bits(g))
	}
	return st
}

// allocatedBytes returns the bytes the process allocated while fn ran.
func allocatedBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// allocSlack covers the fixed per-frame allocations (error strings,
// slice headers) on top of the payload-derived bounds.
const allocSlack = 64 << 10

func FuzzPSRequest(f *testing.F) {
	// Server side: a stream of request frames against a mid-round
	// server. No input may panic, allocate beyond what the server's own
	// parameter sizes allow, or — when rejected — touch the weights,
	// version or round buffers.
	f.Fuzz(func(t *testing.T, data []byte) {
		var out bytes.Buffer
		c := newPSConn(struct {
			io.Reader
			io.Writer
		}{bytes.NewReader(data), &out})
		for frame := 0; ; frame++ {
			// A fresh mid-round server per frame: a frame that completes a
			// round must not leave the next one waiting for peers.
			s := fuzzPSServer()
			// The conn's decoded payload and reply snapshot, rank 0's round
			// buffer and the frame bytes each hold at most one model of
			// fp32, plus per-tensor lengths and slice headers.
			bound := uint64(4*4*s.numel + 64*len(s.params) + allocSlack)
			before := capturePSState(s)
			out.Reset()
			var err error
			if got := allocatedBytes(func() { err = s.serveFrame(c) }); got > bound {
				t.Fatalf("frame %d allocated %d bytes, bound %d", frame, got, bound)
			}
			var fe *frameError
			if out.Len() == 0 {
				if errors.As(err, &fe) {
					t.Fatalf("frame %d: frame error %v was not answered", frame, err)
				}
				return // the stream ended mid-frame
			}
			rep, rerr := readReply(&out, &wireBuf{}, len(s.params), s.numel)
			if rerr != nil {
				t.Fatalf("frame %d: server wrote an undecodable reply: %v", frame, rerr)
			}
			if rep.err != "" {
				if after := capturePSState(s); !reflect.DeepEqual(before, after) {
					t.Fatalf("frame %d: rejected frame (%s) changed server state", frame, rep.err)
				}
			}
			if errors.As(err, &fe) && rep.err != fe.Error() {
				t.Fatalf("frame %d: fatal frame answered with %q, want %q", frame, rep.err, fe.Error())
			}
			if err != nil {
				return
			}
		}
	})
}

func FuzzPSReply(f *testing.F) {
	// Client side: one reply frame. No input may panic or allocate beyond
	// the bounds the client passes, and every accepted frame re-encodes
	// to exactly the bytes it was decoded from.
	const maxTensors, maxElems = 8, 1 << 10
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var rep psReply
		var err error
		// The error bytes and string, lengths and slice headers, and
		// one block of weights.
		bound := uint64(2*psMaxErrLen + 32*maxTensors + 4*maxElems + allocSlack)
		if got := allocatedBytes(func() { rep, err = readReply(r, &wireBuf{}, maxTensors, maxElems) }); got > bound {
			t.Fatalf("reply decode allocated %d bytes, bound %d", got, bound)
		}
		if err != nil {
			return
		}
		var again bytes.Buffer
		if err := writeReply(&again, &wireBuf{}, rep); err != nil {
			t.Fatal(err)
		}
		if consumed := data[:len(data)-r.Len()]; !bytes.Equal(again.Bytes(), consumed) {
			t.Fatalf("decoded reply re-encodes to %d bytes that differ from the %d consumed", again.Len(), len(consumed))
		}
	})
}
