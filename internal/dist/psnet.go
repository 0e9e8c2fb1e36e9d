package dist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"

	"tbd/internal/layers"
	"tbd/internal/optim"
	"tbd/internal/prof"
)

// A real parameter server over TCP (stdlib net + wire.go binary
// frames), the multi-machine data-parallel scheme of §2.2/§4.5 (Li et
// al.): workers pull the current weights, compute gradients on their
// shard, and push them back; the server averages one push per worker,
// applies the optimizer, and releases the next round. Every push carries
// its worker's rank: a round's pushes are buffered per rank and reduced
// in rank order, so a synchronous N-worker run is not only numerically
// equivalent to one big-batch replica but reproducible bit-for-bit run
// to run — the same determinism discipline the ring all-reduce keeps
// via its fixed hop order. The asynchronous server applies each push as
// it lands and holds a worker that runs more than a staleness bound
// ahead of the slowest rank.
//
// Every message is one little-endian frame, so a round trip moves the
// raw tensor bytes plus a small header and nothing else:
//
//	request: kind u8 | rank i32 | count u32 | count × len u32 | payload
//	reply:   version i64 | errlen u32 | err | count u32 | count × len u32 | fp32 payload
//
// A request payload holds each tensor as fp32 (kindPush, 4 B/elem),
// fp16 (kindPush16, 2 B/elem), or a float32 scale then int8 levels
// (kindPush8, 1 B/elem); a pull carries no tensors. The server bounds
// every length by its own parameter sizes before it allocates. A frame
// over that bound, or of an unknown kind, is answered with a frameError
// naming the kind and byte offset, and the connection is closed. A push
// within the bound but of the wrong shape is read to its end and
// answered with an error, and the connection stays usable.

// The parameter-server request vocabulary. Wirecheck holds every kind
// to both sides of the protocol: a kind encoded by the client but
// missing from the server's decode switch would be silently rejected as
// unknown — the classic skew bug of hand-rolled protocols. Zero is not
// a kind, so an all-zero frame is rejected.
//
//tbd:wire-kinds
const (
	kindPull   byte = 0x01
	kindPush   byte = 0x02 // full-precision gradients
	kindPush16 byte = 0x03 // fp16-compressed gradients
	kindPush8  byte = 0x04 // int8-quantized gradients, one scale per tensor
)

// Frame sizes and the client's reply bounds.
const (
	// psReqHeader is a request's fixed header: kind, rank, count.
	psReqHeader = 9
	// psReplyHeader is a reply's fixed header: version, error length,
	// count (the error bytes sit between the last two).
	psReplyHeader = 16
	// psMaxErrLen caps a reply's error string; the server truncates.
	psMaxErrLen = 1 << 10
	// psMaxReplyTensors and psMaxReplyElems bound what a client
	// allocates for one reply (1 GiB of fp32 weights).
	psMaxReplyTensors = 1 << 16
	psMaxReplyElems   = 1 << 28
	// psBufSize is each endpoint's read and write buffer.
	psBufSize = 64 << 10
)

// frameError is a malformed parameter-server frame: the frame's kind (a
// request kind, or "reply"), the byte offset within the frame where
// decoding stopped, and why.
type frameError struct {
	kind string
	off  int
	msg  string
}

func (e *frameError) Error() string {
	return fmt.Sprintf("ps frame kind=%s offset=%d: %s", e.kind, e.off, e.msg)
}

// psRequest is one worker->server message. On the server, grads are
// views of the connection's scratch, valid until its next frame.
type psRequest struct {
	kind  byte
	rank  int
	grads [][]float32
}

// psReply is one server->worker message. On the server, weights are
// views of the connection's snapshot scratch.
type psReply struct {
	version int
	err     string
	weights [][]float32
}

// PSServer is the parameter-server endpoint.
type PSServer struct {
	params  []*layers.Param
	numel   int // Σ parameter elements: the bound on a push's payload
	opt     optim.Optimizer
	workers int
	// async applies each push immediately instead of waiting for a full
	// synchronous round — the A3C-style update discipline (Hogwild over
	// the network). Workers may then train on slightly stale weights.
	async bool
	// staleness bounds how far a worker may run ahead of the slowest
	// worker in async mode (SSP, Ho et al.): a push blocks while
	// clock(rank) - min(clocks) exceeds it.
	staleness int

	mu        sync.Mutex
	cond      *sync.Cond
	pending   [][]float32           // a sync round's rank-ordered sum; guarded by mu
	rankGrads [][][]float32         // sync round buffer [rank][tensor], allocated at a rank's first push; guarded by mu
	rankIn    []bool                // rank has a push buffered this round; guarded by mu
	rankSeen  int                   // distinct ranks buffered this round; guarded by mu
	version   int                   // applied update rounds; guarded by mu
	clocks    []int                 // per-rank applied pushes (bounded async); guarded by mu
	conns     map[net.Conn]struct{} // live connections, closed on shutdown; guarded by mu
	linkIn    *tokenBucket          // shared ingress budget for accepted conns; guarded by mu
	linkOut   *tokenBucket          // shared egress budget for accepted conns; guarded by mu
	closed    bool                  // guarded by mu

	listener net.Listener
	wg       sync.WaitGroup
}

// ServePS starts a parameter server on l managing params with opt,
// expecting one gradient push per round from each of workers clients.
// It returns immediately; Close shuts it down. The guarded fields are
// initialized before the accept loop (the first other goroutine)
// starts, so construction needs no lock.
//
//tbd:pre-publication guarded fields are written before the accept goroutine (the first concurrent observer) starts
func ServePS(l net.Listener, params []*layers.Param, opt optim.Optimizer, workers int) *PSServer {
	s := newPSServer(params, opt, workers)
	s.listener = l
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// newPSServer builds the server state without a listener.
//
//tbd:pre-publication guarded fields are written before the server is shared
func newPSServer(params []*layers.Param, opt optim.Optimizer, workers int) *PSServer {
	if workers <= 0 {
		panic("dist: parameter server needs at least one worker")
	}
	s := &PSServer{
		params:    params,
		opt:       opt,
		workers:   workers,
		conns:     make(map[net.Conn]struct{}),
		pending:   paramBufs(params),
		rankGrads: make([][][]float32, workers),
		rankIn:    make([]bool, workers),
		clocks:    make([]int, workers),
	}
	for _, p := range params {
		s.numel += p.Value.Numel()
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// paramBufs allocates one zeroed buffer per parameter, shaped like
// params, in a single block.
func paramBufs(params []*layers.Param) [][]float32 {
	n := 0
	for _, p := range params {
		n += p.Value.Numel()
	}
	flat := make([]float32, n)
	out := make([][]float32, len(params))
	for i, p := range params {
		k := p.Value.Numel()
		out[i], flat = flat[:k:k], flat[k:]
	}
	return out
}

// ServeBoundedAsyncPS starts an asynchronous parameter server with a
// staleness bound: pushes apply immediately, the update discipline the
// paper's A3C benchmark uses, but a worker whose clock runs more than
// staleness rounds ahead of the slowest worker blocks until the
// stragglers catch up (stale synchronous parallel). staleness 0
// degenerates to a synchronous barrier; large values approach fully
// async.
func ServeBoundedAsyncPS(l net.Listener, params []*layers.Param, opt optim.Optimizer, workers, staleness int) *PSServer {
	if staleness < 0 {
		panic("dist: bounded-async staleness must be >= 0")
	}
	s := ServePS(l, params, opt, workers)
	s.async = true
	s.staleness = staleness
	return s
}

// ThrottleLink clamps the server's NIC to bytesPerSec per direction,
// shared across ALL accepted connections — the central-bottleneck model
// that makes N-worker parameter-server scaling honest. Call before
// workers dial; a rate <= 0 leaves the link unthrottled.
func (s *PSServer) ThrottleLink(bytesPerSec float64) {
	in, out := NewSharedLink(bytesPerSec)
	s.mu.Lock()
	s.linkIn, s.linkOut = in, out
	s.mu.Unlock()
}

// Addr returns the listen address.
func (s *PSServer) Addr() string { return s.listener.Addr().String() }

// Version returns the number of applied update rounds.
func (s *PSServer) Version() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.version
}

// Close stops the accept loop, unblocks every in-flight pull and push
// handler by closing the live connections, and waits for all handler
// goroutines to exit. It is safe to call with workers mid-round: blocked
// pushers observe closed and return an error response before their
// connection drops.
func (s *PSServer) Close() error {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.listener.Close()
	// Closing the connections unblocks handlers parked reading a frame —
	// without this, Close would hang until every client hung up.
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return err
}

func (s *PSServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		in, out := s.linkIn, s.linkOut
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				conn.Close()
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
			}()
			s.serveConn(ThrottleShared(conn, in, out))
		}()
	}
}

// psConn is one accepted connection's framing state, reused frame to
// frame.
type psConn struct {
	r     *bufio.Reader
	w     *bufio.Writer
	buf   wireBuf
	flat  []float32   // decoded push payload, sized to the parameters once
	grads [][]float32 // the current frame's tensors: views of flat
	snap  [][]float32 // reply weights, sized to the parameters once
}

func newPSConn(rw io.ReadWriter) *psConn {
	return &psConn{r: bufio.NewReaderSize(rw, psBufSize), w: bufio.NewWriterSize(rw, psBufSize)}
}

func (s *PSServer) serveConn(rw io.ReadWriter) {
	c := newPSConn(rw)
	for s.serveFrame(c) == nil {
	}
}

// serveFrame reads and answers one request. A non-nil error means the
// connection must close: the transport failed, or the frame was over
// the bound or of an unknown kind (answered with the frame error first).
func (s *PSServer) serveFrame(c *psConn) error {
	req, err := s.readRequest(c)
	if err != nil {
		var fe *frameError
		if errors.As(err, &fe) {
			if werr := c.reply(psReply{err: fe.Error()}); werr != nil {
				return werr
			}
		}
		return err
	}
	var rep psReply
	if req.kind == kindPull {
		rep = s.handlePull(c)
	} else {
		rep = s.handlePush(c, req.rank, req.grads)
	}
	return c.reply(rep)
}

// readRequest decodes one request frame into c's scratch. The tensor
// count and every length are checked against the server's parameters
// before anything is allocated, so a frame never costs more than one
// push of the full model. A *frameError means the stream cannot be
// trusted past this frame; any other error is the transport's.
func (s *PSServer) readRequest(c *psConn) (psRequest, error) {
	var hdr [psReqHeader]byte
	if _, err := io.ReadFull(c.r, hdr[:1]); err != nil {
		return psRequest{}, err
	}
	req := psRequest{kind: hdr[0]}
	// The one place the server decodes a kind: wirecheck pairs these
	// cases with the client's encoders.
	var name string
	var read func(*wireBuf, io.Reader, []float32) error
	maxCount := len(s.params)
	switch req.kind {
	case kindPull:
		name, maxCount = "pull", 0
	case kindPush:
		name, read = "push", (*wireBuf).readF32
	case kindPush16:
		name, read = "push16", (*wireBuf).readF16
	case kindPush8:
		name, read = "push8", (*wireBuf).readInt8
	default:
		return req, &frameError{fmt.Sprintf("0x%02x", req.kind), 0, "unknown request kind"}
	}
	if _, err := io.ReadFull(c.r, hdr[1:]); err != nil {
		return req, err
	}
	req.rank = int(int32(binary.LittleEndian.Uint32(hdr[1:])))
	count := binary.LittleEndian.Uint32(hdr[5:])
	if uint64(count) > uint64(maxCount) {
		return req, &frameError{name, 5, fmt.Sprintf("tensor count %d over bound %d", count, maxCount)}
	}
	if count == 0 {
		return req, nil
	}
	lens := c.buf.grow(4 * int(count))
	if _, err := io.ReadFull(c.r, lens); err != nil {
		return req, err
	}
	if c.flat == nil {
		c.flat = make([]float32, s.numel)
		c.grads = make([][]float32, len(s.params))
	}
	req.grads = c.grads[:count]
	total := 0
	for i := range req.grads {
		n := binary.LittleEndian.Uint32(lens[4*i:])
		if uint64(n) > uint64(s.numel-total) {
			return req, &frameError{name, psReqHeader + 4*i, fmt.Sprintf("tensor %d has %d elements, over the remaining bound %d", i, n, s.numel-total)}
		}
		req.grads[i] = c.flat[total : total+int(n) : total+int(n)]
		total += int(n)
	}
	for _, g := range req.grads {
		if err := read(&c.buf, c.r, g); err != nil {
			return req, err
		}
	}
	return req, nil
}

// reply frames rep and flushes it to the client.
func (c *psConn) reply(rep psReply) error {
	if err := writeReply(c.w, &c.buf, rep); err != nil {
		return err
	}
	return c.w.Flush()
}

// writeReply frames one reply. An error longer than psMaxErrLen is
// truncated.
func writeReply(w io.Writer, b *wireBuf, rep psReply) error {
	msg := rep.err
	if len(msg) > psMaxErrLen {
		msg = msg[:psMaxErrLen]
	}
	hdr := b.grow(psReplyHeader + len(msg) + 4*len(rep.weights))
	binary.LittleEndian.PutUint64(hdr, uint64(int64(rep.version)))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(msg)))
	o := 12 + copy(hdr[12:], msg)
	binary.LittleEndian.PutUint32(hdr[o:], uint32(len(rep.weights)))
	for i, t := range rep.weights {
		binary.LittleEndian.PutUint32(hdr[o+4+4*i:], uint32(len(t)))
	}
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	for _, t := range rep.weights {
		if err := b.writeF32(w, t); err != nil {
			return err
		}
	}
	return nil
}

// readReply decodes one reply frame. Its header is checked against
// maxTensors and maxElems before the weights — one block of at most
// maxElems float32s — are allocated.
func readReply(r io.Reader, b *wireBuf, maxTensors, maxElems int) (psReply, error) {
	hdr := b.grow(12)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return psReply{}, err
	}
	rep := psReply{version: int(int64(binary.LittleEndian.Uint64(hdr)))}
	n := binary.LittleEndian.Uint32(hdr[8:])
	if n > psMaxErrLen {
		return psReply{}, &frameError{"reply", 8, fmt.Sprintf("error length %d over bound %d", n, psMaxErrLen)}
	}
	msg := b.grow(int(n) + 4)
	if _, err := io.ReadFull(r, msg); err != nil {
		return psReply{}, err
	}
	rep.err = string(msg[:n])
	off := 12 + int(n)
	count := binary.LittleEndian.Uint32(msg[n:])
	if uint64(count) > uint64(maxTensors) {
		return psReply{}, &frameError{"reply", off, fmt.Sprintf("tensor count %d over bound %d", count, maxTensors)}
	}
	if count == 0 {
		return rep, nil
	}
	lens := b.grow(4 * int(count))
	if _, err := io.ReadFull(r, lens); err != nil {
		return psReply{}, err
	}
	total := 0
	for i := 0; i < int(count); i++ {
		k := binary.LittleEndian.Uint32(lens[4*i:])
		if uint64(k) > uint64(maxElems-total) {
			return psReply{}, &frameError{"reply", off + 4 + 4*i, fmt.Sprintf("tensor %d has %d elements, over the remaining bound %d", i, k, maxElems-total)}
		}
		total += int(k)
	}
	flat := make([]float32, total)
	rep.weights = make([][]float32, count)
	for i := range rep.weights {
		k := int(binary.LittleEndian.Uint32(lens[4*i:]))
		rep.weights[i], flat = flat[:k:k], flat[k:]
	}
	for _, w := range rep.weights {
		if err := b.readF32(r, w); err != nil {
			return psReply{}, err
		}
	}
	return rep, nil
}

func (s *PSServer) handlePull(c *psConn) psReply {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.replyLocked(c)
}

// replyLocked answers with the current version and weights, copied into
// c's snapshot scratch so the frame is encoded outside the lock.
//
//tbd:locked-by-caller
func (s *PSServer) replyLocked(c *psConn) psReply {
	if c.snap == nil {
		c.snap = paramBufs(s.params)
	}
	for i, p := range s.params {
		copy(c.snap[i], p.Value.Data())
	}
	return psReply{version: s.version, weights: c.snap}
}

// checkShapeLocked validates one push payload against the parameters.
//
//tbd:locked-by-caller
func (s *PSServer) checkShapeLocked(grads [][]float32) string {
	if len(grads) != len(s.params) {
		return fmt.Sprintf("push with %d tensors, want %d", len(grads), len(s.params))
	}
	for i, g := range grads {
		if len(g) != len(s.pending[i]) {
			return fmt.Sprintf("tensor %d has %d elements, want %d", i, len(g), len(s.pending[i]))
		}
	}
	return ""
}

// applyLocked loads avg-ready gradient sums scaled by inv into the
// parameter gradients and steps the optimizer.
//
//tbd:locked-by-caller
func (s *PSServer) applyLocked(sum [][]float32, inv float32) {
	for i, p := range s.params {
		dst := p.Grad.Data()
		for j, v := range sum[i] {
			dst[j] = v * inv
		}
	}
	s.opt.Step(s.params)
	optim.ZeroGrads(s.params)
	s.version++
}

// handlePush takes one rank's gradients. A sync server buffers one push
// per rank and reduces them in rank order when the round completes; an
// async server applies the push immediately under the staleness bound.
func (s *PSServer) handlePush(c *psConn, rank int, grads [][]float32) psReply {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rank < 0 || rank >= s.workers {
		return psReply{err: fmt.Sprintf("rank %d outside [0, %d)", rank, s.workers)}
	}
	if msg := s.checkShapeLocked(grads); msg != "" {
		return psReply{err: msg}
	}

	if s.async {
		// Apply this worker's contribution immediately, then hold the
		// worker while it is more than `staleness` rounds ahead of the
		// slowest clock.
		s.applyLocked(grads, 1)
		s.clocks[rank]++
		s.cond.Broadcast()
		for s.clocks[rank]-minInt(s.clocks) > s.staleness && !s.closed {
			s.cond.Wait()
		}
		if s.closed {
			return psReply{err: "server closed"}
		}
		return s.replyLocked(c)
	}

	if s.rankIn[rank] {
		return psReply{err: fmt.Sprintf("rank %d pushed twice in one round", rank)}
	}
	if s.rankGrads[rank] == nil {
		s.rankGrads[rank] = paramBufs(s.params)
	}
	for i, g := range grads {
		copy(s.rankGrads[rank][i], g)
	}
	s.rankIn[rank] = true
	s.rankSeen++
	round := s.version
	if s.rankSeen == s.workers {
		// Reduce in rank order 0..N-1: the accumulation order no longer
		// depends on network arrival, so repeated runs are bit-identical.
		for i := range s.pending {
			sum := s.pending[i]
			clearF32(sum)
			for r := 0; r < s.workers; r++ {
				for j, v := range s.rankGrads[r][i] {
					sum[j] += v
				}
			}
		}
		s.applyLocked(s.pending, 1/float32(s.workers))
		for r := range s.rankIn {
			s.rankIn[r] = false
		}
		s.rankSeen = 0
		s.cond.Broadcast()
	} else {
		for s.version == round && !s.closed {
			s.cond.Wait()
		}
		if s.closed {
			return psReply{err: "server closed"}
		}
	}
	return s.replyLocked(c)
}

func clearF32(s []float32) {
	for i := range s {
		s[i] = 0
	}
}

func minInt(xs []int) int {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// PSClient is a worker's connection to the parameter server.
type PSClient struct {
	conn  net.Conn
	count *countingConn
	r     *bufio.Reader
	w     *bufio.Writer
	buf   wireBuf        // frame scratch, reused call to call
	quant *Int8Quantizer // error-feedback state for int8 pushes
	offs  []int          // flat-stream offset of each tensor, then the total, for the quantizer
	q8    []byte         // int8 levels of one tensor
}

// DialPS connects a worker to the server at addr over a link clamped to
// bytesPerSec per direction (0 = unthrottled). The client counts wire
// bytes either way.
func DialPS(addr string, bytesPerSec float64) (*PSClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dist: dial parameter server: %w", err)
	}
	count := newCountingConn(conn)
	wire := Throttle(count, bytesPerSec)
	return &PSClient{
		conn: conn, count: count,
		r: bufio.NewReaderSize(wire, psBufSize), w: bufio.NewWriterSize(wire, psBufSize),
	}, nil
}

// Close terminates the connection.
func (c *PSClient) Close() error { return c.conn.Close() }

// WireBytes returns cumulative (in, out) wire bytes this client moved.
func (c *PSClient) WireBytes() (in, out int64) { return c.count.Bytes() }

func (c *PSClient) roundTrip(req psRequest, comp Compression) (psReply, error) {
	in0, out0 := c.count.Bytes()
	sp := prof.Begin(prof.CatComm, "comm.ps.roundtrip")
	err := c.writeRequest(req, comp)
	if err == nil {
		err = c.w.Flush()
	}
	if err != nil {
		sp.End()
		return psReply{}, fmt.Errorf("dist: send ps request: %w", err)
	}
	rep, err := readReply(c.r, &c.buf, psMaxReplyTensors, psMaxReplyElems)
	if err != nil {
		sp.End()
		return psReply{}, fmt.Errorf("dist: receive ps reply: %w", err)
	}
	in1, out1 := c.count.Bytes()
	sp.SetBytes((in1 - in0) + (out1 - out0))
	sp.End()
	if rep.err != "" {
		return psReply{}, fmt.Errorf("dist: server: %s", rep.err)
	}
	return rep, nil
}

// writeRequest frames one request into the client's buffered writer:
// header, tensor lengths, then each tensor under comp.
func (c *PSClient) writeRequest(req psRequest, comp Compression) error {
	if req.rank < math.MinInt32 || req.rank > math.MaxInt32 {
		return fmt.Errorf("rank %d does not fit a frame", req.rank)
	}
	if comp == CompressInt8 {
		if err := c.prepareInt8(req.grads); err != nil {
			return err
		}
	}
	hdr := c.buf.grow(psReqHeader + 4*len(req.grads))
	hdr[0] = req.kind
	binary.LittleEndian.PutUint32(hdr[1:], uint32(int32(req.rank)))
	binary.LittleEndian.PutUint32(hdr[5:], uint32(len(req.grads)))
	for i, g := range req.grads {
		binary.LittleEndian.PutUint32(hdr[psReqHeader+4*i:], uint32(len(g)))
	}
	if _, err := c.w.Write(hdr); err != nil {
		return err
	}
	for i, g := range req.grads {
		var err error
		switch comp {
		case CompressFP16:
			err = c.buf.writeF16(c.w, g)
		case CompressInt8:
			q := c.q8[:len(g)]
			err = c.buf.writeInt8(c.w, c.quant.QuantizeAt(c.offs[i], g, q), q)
		default:
			err = c.buf.writeF32(c.w, g)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// prepareInt8 sizes the error-feedback quantizer at the first int8
// push; later pushes must keep that tensor layout.
func (c *PSClient) prepareInt8(grads [][]float32) error {
	if c.quant == nil {
		c.offs = make([]int, len(grads)+1)
		widest := 0
		for i, g := range grads {
			c.offs[i+1] = c.offs[i] + len(g)
			widest = max(widest, len(g))
		}
		c.quant = NewInt8Quantizer(c.offs[len(grads)])
		c.q8 = make([]byte, widest)
	}
	if len(grads) != len(c.offs)-1 {
		return fmt.Errorf("int8 push of %d tensors after a first push of %d", len(grads), len(c.offs)-1)
	}
	for i, g := range grads {
		if len(g) != c.offs[i+1]-c.offs[i] {
			return fmt.Errorf("int8 push: tensor %d has %d elements, the first push had %d", i, len(g), c.offs[i+1]-c.offs[i])
		}
	}
	return nil
}

// Pull fetches the current weights and version.
func (c *PSClient) Pull() ([][]float32, int, error) {
	rep, err := c.roundTrip(psRequest{kind: kindPull}, CompressNone)
	return rep.weights, rep.version, err
}

// Push submits this worker's gradients, tagged with its rank, under
// comp and returns the post-update weights. On a sync server it blocks
// until every rank has pushed and the round is applied; the rank fixes
// the reduction order, so rounds are bit-identical run to run. On an
// async server it blocks only while the worker is over the staleness
// bound. Int8 pushes keep an error-feedback residual inside the client,
// so a client must push the same tensor layout every round.
func (c *PSClient) Push(rank int, comp Compression, grads [][]float32) ([][]float32, int, error) {
	req := psRequest{kind: kindPush, rank: rank, grads: grads}
	switch comp {
	case CompressFP16:
		req.kind = kindPush16
	case CompressInt8:
		req.kind = kindPush8
	}
	rep, err := c.roundTrip(req, comp)
	return rep.weights, rep.version, err
}

// LoadWeights copies pulled weights into a parameter list.
func LoadWeights(params []*layers.Param, weights [][]float32) error {
	if len(weights) != len(params) {
		return fmt.Errorf("dist: %d weight tensors for %d params", len(weights), len(params))
	}
	for i, w := range weights {
		if len(w) != params[i].Value.Numel() {
			return fmt.Errorf("dist: tensor %d has %d elements, want %d", i, len(w), params[i].Value.Numel())
		}
		copy(params[i].Value.Data(), w)
	}
	return nil
}

// GradSlices extracts gradient payloads for a push.
func GradSlices(params []*layers.Param) [][]float32 {
	out := make([][]float32, len(params))
	for i, p := range params {
		out[i] = append([]float32(nil), p.Grad.Data()...)
	}
	return out
}
