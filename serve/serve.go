// Package serve promotes the optchain Engine from a library to a
// long-running placement service: an HTTP front end that accepts single and
// batched placement requests, coalesces concurrent requests into
// Engine.PlaceBatch calls through a bounded ingest queue with admission
// control, exposes the engine's metrics plus server-side counters and
// latency histograms in Prometheus text format, and periodically snapshots
// the engine's decision state to disk so a restarted router resumes the
// stream without replaying history.
//
// Architecture (the gateway/ingest split): handler goroutines parse and
// admit requests into a bounded queue; a single dispatcher goroutine drains
// the queue, coalescing whatever is waiting (up to MaxBatch) into one
// PlaceBatch call, so batching emerges from concurrency instead of from
// timers. A full queue rejects new work immediately (HTTP 429 with
// Retry-After) rather than building unbounded backlog; a request whose
// context expires while queued is dropped before placement and answered
// with the deadline error. Every request the queue accepts is answered
// with a decision — including during graceful shutdown, which drains the
// queue before the final snapshot.
//
// Decisions stream: a /v1/place connection writes and flushes every
// decision it has admitted whenever its request body holds no further
// complete line, so a client trickling lines in gets each answer about as
// soon as the dispatcher makes it. Snapshots hold the dispatcher only for
// what needs a batch boundary — the engine's snapshot and one pass over
// the id map — while a writer goroutine encodes, checksums, writes, fsyncs
// and renames the file in request order as placement continues.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"optchain"
)

// Typed errors returned by the serve API. Match with errors.Is.
var (
	// ErrBadConfig reports an invalid Config field.
	ErrBadConfig = errors.New("serve: invalid configuration")
	// ErrServerClosed reports an operation on a closed (or closing) server.
	ErrServerClosed = errors.New("serve: server closed")
	// ErrQueueFull reports admission-control rejection: the ingest queue is
	// at capacity. Clients should back off and retry (HTTP 429 with
	// Retry-After).
	ErrQueueFull = errors.New("serve: ingest queue full")
	// ErrBadRequest reports a malformed or unsatisfiable placement request
	// (unknown parent id, duplicate id, input position out of range).
	ErrBadRequest = errors.New("serve: bad request")
	// ErrBadState reports a corrupt, truncated, or incompatible state file.
	ErrBadState = errors.New("serve: invalid state file")
)

// Defaults for zero Config fields.
const (
	// DefaultQueueDepth bounds the ingest queue: requests beyond it are
	// rejected with ErrQueueFull instead of queuing unbounded backlog.
	DefaultQueueDepth = 4096
	// DefaultMaxBatch caps how many queued requests one PlaceBatch call
	// coalesces.
	DefaultMaxBatch = optchain.DefaultBatchSize
	// DefaultRetryAfter is the backoff advertised on 429 responses.
	DefaultRetryAfter = time.Second
	// DefaultSnapshotEvery is the periodic snapshot cadence when StatePath
	// is configured and SnapshotEvery is zero.
	DefaultSnapshotEvery = 30 * time.Second
)

// Config parameterizes New. Engine is required; zero values elsewhere take
// the defaults above.
type Config struct {
	// Engine is the placement engine to serve. The server owns its stream:
	// no other goroutine may Place on it while the server runs.
	Engine *optchain.Engine
	// QueueDepth bounds the ingest queue (admission control).
	QueueDepth int
	// MaxBatch caps requests coalesced per PlaceBatch call, and the lines
	// one /v1/place connection may have admitted but not yet answered.
	MaxBatch int
	// RetryAfter is advertised in the Retry-After header of 429 responses.
	RetryAfter time.Duration
	// StatePath, when non-empty, enables state snapshots: New restores from
	// the file if it exists, the server re-snapshots every SnapshotEvery,
	// and Close writes a final snapshot after draining.
	StatePath string
	// SnapshotEvery is the periodic snapshot cadence (StatePath only).
	// Negative disables the periodic snapshotter, keeping only the
	// on-demand and shutdown snapshots.
	SnapshotEvery time.Duration
}

// Request is one placement request: the outputs the transaction creates and
// the earlier transactions it spends, referenced either by absolute stream
// position (Inputs, as the Engine's own API counts them) or by the
// client-assigned ID of an earlier request (Parents). ID, when set,
// registers this transaction for later Parents references; IDs must be
// unique across the stream.
type Request struct {
	ID      string   `json:"id,omitempty"`
	Inputs  []int    `json:"inputs,omitempty"`
	Parents []string `json:"parents,omitempty"`
	Outputs int      `json:"outputs"`
}

// Response is one placement decision: the transaction's absolute stream
// position (the index later Inputs references use) and its shard.
type Response struct {
	ID    string `json:"id,omitempty"`
	Index int    `json:"index"`
	Shard int    `json:"shard"`
}

// placeOutcome is the dispatcher's answer to one pending request.
type placeOutcome struct {
	index int
	shard int
	err   error
}

// snapJob is one captured snapshot on its way to the writer, with the
// capture's own failure (if any) and the requester's reply channel
// (buffered 1: the writer never blocks answering).
type snapJob struct {
	img   stateImage
	err   error
	reply chan error
}

// pending is one admitted request waiting for the dispatcher.
type pending struct {
	ctx      context.Context
	req      Request
	enqueued time.Time
	done     chan placeOutcome // buffered 1: the dispatcher never blocks responding
}

// Server is a running placement service over one Engine. Construct with
// New; serve HTTP with Handler; stop with Close. Methods are safe for
// concurrent use.
type Server struct {
	cfg     Config
	eng     *optchain.Engine
	queue   chan *pending
	snapReq chan chan error
	writes  chan snapJob  // dispatcher -> snapshot writer, in request order
	written chan struct{} // closed when the snapshot writer has exited
	stop    chan struct{} // closed by Close: stop accepting, drain, exit
	dead    chan struct{} // closed when the dispatcher has exited
	wg      sync.WaitGroup
	met     *metrics

	mu       sync.Mutex
	closed   bool // guarded by mu
	panicked any  // guarded by mu — dispatcher panic, re-raised by Close

	// Dispatcher-owned state: accessed only by the dispatcher goroutine
	// while it runs, and by Close/loadState when no dispatcher runs.
	ids       map[string]int // client id -> absolute stream index
	nextIndex int            // next stream position the engine will assign
	batchBuf  []*pending
	txBuf     []optchain.StreamTx
	shardBuf  []int
}

// New builds and starts a Server: it restores the engine from
// Config.StatePath when the file exists, then launches the dispatcher and
// (when snapshots are enabled) the periodic snapshotter. The caller must
// Close the returned server to stop the goroutines and write the final
// snapshot.
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("%w: Config.Engine is required", ErrBadConfig)
	}
	if cfg.QueueDepth < 0 || cfg.MaxBatch < 0 || cfg.RetryAfter < 0 {
		return nil, fmt.Errorf("%w: negative QueueDepth/MaxBatch/RetryAfter", ErrBadConfig)
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.MaxBatch == 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	if cfg.RetryAfter == 0 {
		cfg.RetryAfter = DefaultRetryAfter
	}
	if cfg.SnapshotEvery == 0 {
		cfg.SnapshotEvery = DefaultSnapshotEvery
	}
	s := &Server{
		cfg:     cfg,
		eng:     cfg.Engine,
		queue:   make(chan *pending, cfg.QueueDepth),
		snapReq: make(chan chan error),
		stop:    make(chan struct{}),
		dead:    make(chan struct{}),
		met:     newMetrics(),
		ids:     make(map[string]int),
	}
	if cfg.StatePath != "" {
		if err := s.loadState(cfg.StatePath); err != nil {
			return nil, err
		}
	}
	s.nextIndex = s.eng.Stats().Placed

	if cfg.StatePath != "" {
		// One capture may wait while the previous one is being written.
		s.writes = make(chan snapJob, 1)
		s.written = make(chan struct{})
		s.spawn(s.writeLoop)
	}
	s.spawn(func() {
		defer close(s.dead)
		s.dispatch()
	})
	if cfg.StatePath != "" && cfg.SnapshotEvery > 0 {
		s.spawn(s.snapshotLoop)
	}
	return s, nil
}

// spawn runs fn on a goroutine that Close joins; a panic in fn is recorded
// and re-raised by Close on the joining goroutine.
func (s *Server) spawn(fn func()) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer func() {
			if p := recover(); p != nil {
				s.mu.Lock()
				s.panicked = p
				s.mu.Unlock()
			}
		}()
		fn()
	}()
}

// Queue reports the ingest queue's current depth and capacity.
func (s *Server) Queue() (depth, capacity int) {
	return len(s.queue), cap(s.queue)
}

// Engine returns the engine the server places on.
func (s *Server) Engine() *optchain.Engine { return s.eng }

// LatencyQuantile estimates the given enqueue-to-decision latency quantile
// (0..1, e.g. 0.99) in seconds from the server's histogram — the same
// estimate Prometheus' histogram_quantile derives from /metrics. It
// returns 0 before any placement.
func (s *Server) LatencyQuantile(q float64) float64 { return s.met.Quantile(q) }

// Place routes one placement request through the full ingest path — the
// same admission control, queue, and batch coalescing HTTP requests use —
// and returns the decision. It blocks until the dispatcher answers, ctx
// expires (the request is then dropped before placement), or the server
// closes.
func (s *Server) Place(ctx context.Context, req Request) (Response, error) {
	p := &pending{ctx: ctx, req: req, enqueued: time.Now(), done: make(chan placeOutcome, 1)}
	if err := s.enqueue(p); err != nil {
		return Response{}, err
	}
	select {
	case o := <-p.done:
		if o.err != nil {
			return Response{}, o.err
		}
		return Response{ID: req.ID, Index: o.index, Shard: o.shard}, nil
	case <-s.dead:
		// Prefer a decision that raced with the shutdown.
		select {
		case o := <-p.done:
			if o.err != nil {
				return Response{}, o.err
			}
			return Response{ID: req.ID, Index: o.index, Shard: o.shard}, nil
		default:
			return Response{}, ErrServerClosed
		}
	case <-ctx.Done():
		return Response{}, fmt.Errorf("%w: %v", ErrBadRequest, ctx.Err())
	}
}

// enqueue admits one pending request into the bounded queue, or rejects it
// with ErrQueueFull (admission control) / ErrServerClosed.
func (s *Server) enqueue(p *pending) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrServerClosed
	}
	select {
	case s.queue <- p:
		return nil
	default:
		s.met.reject()
		return ErrQueueFull
	}
}

// dispatch is the single batching loop: it blocks for one admitted request,
// greedily coalesces everything else already queued (up to MaxBatch) into
// one PlaceBatch call, and answers every request it took. Snapshot requests
// interleave between batches, so the state file always captures a batch
// boundary. On stop it drains the queue completely — every accepted
// request is answered — waits for the snapshot writer to finish every
// in-flight write, and exits.
func (s *Server) dispatch() {
	if s.writes != nil {
		defer func() {
			close(s.writes)
			<-s.written
		}()
	}
	for {
		select {
		case <-s.stop:
			for {
				select {
				case p := <-s.queue:
					s.placeBatch(s.coalesce(p))
				case reply := <-s.snapReq:
					s.snapshot(reply)
				default:
					return
				}
			}
		case reply := <-s.snapReq:
			s.snapshot(reply)
		case p := <-s.queue:
			s.placeBatch(s.coalesce(p))
		}
	}
}

// snapshot captures the state at this batch boundary and hands it to the
// writer, which answers reply once the file is durable.
func (s *Server) snapshot(reply chan error) {
	img, err := s.captureState()
	select {
	case s.writes <- snapJob{img: img, err: err, reply: reply}:
	case <-s.written:
		// The writer died (its panic is re-raised by Close).
		reply <- ErrServerClosed
	}
}

// coalesce collects first plus whatever is already queued, up to MaxBatch.
func (s *Server) coalesce(first *pending) []*pending {
	batch := append(s.batchBuf[:0], first)
	for len(batch) < s.cfg.MaxBatch {
		select {
		case p := <-s.queue:
			batch = append(batch, p)
		default:
			s.batchBuf = batch
			return batch
		}
	}
	s.batchBuf = batch
	return batch
}

// placeBatch validates, resolves, and places one coalesced batch, then
// answers every request in it. Expired requests are dropped before
// placement; invalid ones (bad position, unknown parent, duplicate id) are
// answered with ErrBadRequest and excluded, so one client's bad request
// never aborts another's. Indexes are assigned in admission order.
func (s *Server) placeBatch(batch []*pending) {
	txs := s.txBuf[:0]
	included := batch[:0:0] // requests actually reaching the engine, in order
	base := s.nextIndex
	for _, p := range batch {
		if err := p.ctx.Err(); err != nil {
			s.met.expire()
			p.done <- placeOutcome{err: fmt.Errorf("%w: %v", ErrBadRequest, err)}
			continue
		}
		tx, err := s.resolve(p.req, base+len(txs))
		if err != nil {
			s.met.invalid()
			p.done <- placeOutcome{err: err}
			continue
		}
		if id := p.req.ID; id != "" {
			// Register before the engine call so later requests in this
			// same batch can name it as a parent (and a duplicate is caught
			// even within one batch); rolled back if the engine stops early.
			s.ids[id] = base + len(txs)
		}
		txs = append(txs, tx)
		included = append(included, p)
	}
	s.txBuf = txs
	if len(txs) == 0 {
		return
	}
	shards, err := s.eng.PlaceBatch(txs, s.shardBuf)
	s.shardBuf = shards
	now := time.Now()
	for i, p := range included {
		if i < len(shards) {
			s.met.place(now.Sub(p.enqueued))
			p.done <- placeOutcome{index: base + i, shard: shards[i]}
			continue
		}
		// The engine stopped at a failure (a misbehaving custom strategy);
		// everything past the placed prefix is answered with that error and
		// its provisional id registration rolled back.
		if id := p.req.ID; id != "" {
			delete(s.ids, id)
		}
		s.met.invalid()
		p.done <- placeOutcome{err: fmt.Errorf("%w: %v", ErrBadRequest, err)}
	}
	s.nextIndex = base + len(shards)
	s.met.batch(len(shards))
}

// resolve translates one request into a StreamTx for stream position idx:
// absolute Inputs are range-checked, Parents resolve through the id map
// (including ids registered earlier in the same batch), and a duplicate ID
// is rejected before it can shadow the earlier transaction.
func (s *Server) resolve(req Request, idx int) (optchain.StreamTx, error) {
	var tx optchain.StreamTx
	if req.Outputs < 0 {
		return tx, fmt.Errorf("%w: negative outputs %d", ErrBadRequest, req.Outputs)
	}
	if req.ID != "" {
		if prev, dup := s.ids[req.ID]; dup {
			return tx, fmt.Errorf("%w: id %q already names stream position %d", ErrBadRequest, req.ID, prev)
		}
	}
	ins := make([]int, 0, len(req.Inputs)+len(req.Parents))
	for _, in := range req.Inputs {
		if in < 0 || in >= idx {
			return tx, fmt.Errorf("%w: input position %d not in [0, %d)", ErrBadRequest, in, idx)
		}
		ins = append(ins, in)
	}
	for _, parent := range req.Parents {
		pos, ok := s.ids[parent]
		if !ok {
			return tx, fmt.Errorf("%w: unknown parent id %q (parents must be placed first)", ErrBadRequest, parent)
		}
		ins = append(ins, pos)
	}
	tx.Inputs = ins
	tx.Outputs = req.Outputs
	return tx, nil
}

// snapshotLoop drives the periodic snapshots: every SnapshotEvery it asks
// the dispatcher to save state at the next batch boundary.
func (s *Server) snapshotLoop() {
	t := time.NewTicker(s.cfg.SnapshotEvery)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			reply := make(chan error, 1)
			select {
			case s.snapReq <- reply:
			case <-s.stop:
				return
			}
			// A failure is already counted by the writer; waiting keeps
			// periodic snapshots from piling up behind a slow disk.
			select {
			case <-reply:
			case <-s.stop:
				return
			}
		}
	}
}

// Snapshot asks the dispatcher to capture a state snapshot at the next
// batch boundary and waits until the file is durable or the write has
// failed. It fails with ErrBadConfig when the server was built without a
// StatePath.
func (s *Server) Snapshot(ctx context.Context) error {
	if s.cfg.StatePath == "" {
		return fmt.Errorf("%w: snapshots need Config.StatePath", ErrBadConfig)
	}
	reply := make(chan error, 1)
	select {
	case s.snapReq <- reply:
	case <-s.dead:
		return ErrServerClosed
	case <-ctx.Done():
		return fmt.Errorf("%w: %v", ErrBadRequest, ctx.Err())
	}
	select {
	case err := <-reply:
		return err
	case <-s.dead:
		return ErrServerClosed
	case <-ctx.Done():
		return fmt.Errorf("%w: %v", ErrBadRequest, ctx.Err())
	}
}

// Close stops the server gracefully: admission closes immediately (new
// requests get ErrServerClosed), the dispatcher drains every already
// accepted request to a decision and finishes every in-flight snapshot
// write, the background goroutines are joined, and — when snapshots are
// configured — a final snapshot is written. ctx bounds the wait for the
// drain. A second Close returns ErrServerClosed.
func (s *Server) Close(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrServerClosed
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stop)

	joined := make(chan struct{})
	go func() {
		defer close(joined)
		defer func() {
			// The join itself cannot fail; the recover satisfies the worker
			// contract and guards against future edits panicking here.
			_ = recover()
		}()
		s.wg.Wait()
	}()
	select {
	case <-joined:
	case <-ctx.Done():
		return fmt.Errorf("%w: drain interrupted: %v", ErrServerClosed, ctx.Err())
	}

	s.mu.Lock()
	p := s.panicked
	s.mu.Unlock()
	if p != nil {
		panic(p) //optchain:fatal re-raise a dispatcher panic on the joining goroutine (spawncheck contract)
	}
	if s.cfg.StatePath != "" {
		return s.commitState(s.captureState())
	}
	return nil
}
