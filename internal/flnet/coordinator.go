package flnet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"eefei/internal/dataset"
	"eefei/internal/fl"
	"eefei/internal/ml"
)

// ErrCoordinator is returned (wrapped) for coordinator-side failures.
var ErrCoordinator = errors.New("flnet: coordinator error")

// handshakeTimeout bounds one Join/Rejoin + Welcome exchange.
const handshakeTimeout = 10 * time.Second

// CoordinatorConfig configures a networked training run. The federated
// hyper-parameters reuse fl.Config.
type CoordinatorConfig struct {
	// FL carries K, E, learning rate, decay and seed. BatchSize is applied
	// by the edge servers locally.
	FL fl.Config
	// Classes and Features size the global model.
	Classes, Features int
	// RoundTimeout bounds one full round trip (send request + local
	// training + receive reply) per client. Zero selects 2 minutes.
	RoundTimeout time.Duration
	// JoinTimeout bounds the wait for the expected number of clients.
	// Zero selects 1 minute.
	JoinTimeout time.Duration
	// MinReplies enables straggler/fault tolerance: a round succeeds as
	// long as at least this many of the K selected clients reply before
	// the timeout; the failed clients are marked disconnected (they may
	// rejoin later) and the aggregation proceeds over the survivors. Zero
	// requires all K replies (the paper's synchronous setting).
	MinReplies int
	// RejoinGrace, when > 0, lets a round repair itself: a selected client
	// whose connection fails mid-round is given this long to re-register,
	// after which the round's request is re-sent on the fresh connection
	// (repeatedly if needed, within the round timeout). Only when no
	// rejoin arrives inside the window is the client declared dropped.
	// This makes round outcomes independent of how reconnect latency
	// races the round boundary. Zero fails clients immediately.
	RejoinGrace time.Duration
	// UploadQuantBits asks clients to quantize their uploaded models
	// (ml.Quant8 or ml.Quant16; 0 = full precision), cutting the e^U
	// upload energy roughly 64/bits-fold at a bounded accuracy cost.
	UploadQuantBits ml.QuantBits
	// DownloadQuantBits broadcasts the global model as a quantized residual
	// against the last broadcast each client acknowledged (ml.Quant8 or
	// ml.Quant16; 0 = full precision every round). Coordinator-side error
	// feedback subtracts each round's quantization error from the next
	// residual, so the error never accumulates. Clients whose downlink state
	// is unknown (fresh joins, rejoins) receive the full model.
	DownloadQuantBits ml.QuantBits
}

// clientConn is one roster slot. A slot is created by MsgJoin and lives for
// the whole run; a client that fails mid-round is marked disconnected and
// its slot is revived in place when the client re-registers with MsgRejoin.
type clientConn struct {
	id      int
	conn    net.Conn
	samples int
	// connected marks a slot with a live connection; disconnected slots
	// are skipped by selection until they rejoin.
	connected bool
	// gen counts (re-)registrations of this slot. Round snapshots it into
	// candGen when it lists the slot as a selection candidate, so neither a
	// request nor a failure observed on a stale connection can touch a
	// freshly rejoined client.
	gen     int
	candGen int
	// lastSent is the global model exactly as this client's connection
	// last reconstructed it (error feedback: quantized residuals are
	// dequantized back, so lastSent carries the client's rounding, not the
	// coordinator's ideal). lastRound is the round of that broadcast.
	// pending stages the candidate successor while a round is in flight;
	// both are guarded by the coordinator mutex and reset on rejoin, since
	// a fresh connection holds no downlink state. Nil = next send is full.
	lastSent  *ml.Model
	pending   *ml.Model
	lastRound int
	// readBuf and repModel are the slot's reply-decode scratch, touched
	// only by the active round's goroutine for this slot (rounds are
	// serial, and each round selects a client at most once).
	readBuf  []byte
	repModel *ml.Model
}

// Coordinator is the networked FedAvg coordinator: it accepts edge-server
// registrations (and re-registrations, at any point of the run) and drives
// synchronous rounds that tolerate mid-round client failures. The round
// itself — selection, quorum, Eq. (2) mean, evaluation, commit and
// observer — is package fl's (fl.Engine.RoundWith); the coordinator is its
// wire dispatcher.
type Coordinator struct {
	cfg CoordinatorConfig
	ln  net.Listener
	// eng owns the global model, round counter and history, and commits
	// them under mu.
	eng *fl.Engine

	// Dispatch scratch, reused across rounds so warm rounds stay off the
	// allocator and touched only by the single active Round call: resid
	// and recon build the residual downlink and its error-feedback
	// reconstruction; updates is the survivors' replies.
	resid   *ml.Model
	recon   *ml.Model
	updates []fl.Update

	mu        sync.Mutex
	clients   []*clientConn
	rejoins   int // re-registrations not yet reported by a completed round
	accepting bool
	down      bool
}

// NewCoordinator wraps an already-open listener. The caller keeps ownership
// of the listener's lifetime; Close shuts down both. cfg.FL is validated by
// fl.Config.Validate's rules, except that K is checked against the fleet by
// WaitForClients; MinReplies must lie in [0, K].
func NewCoordinator(cfg CoordinatorConfig, ln net.Listener, test *dataset.Dataset) (*Coordinator, error) {
	if cfg.Classes <= 0 || cfg.Features <= 0 {
		return nil, fmt.Errorf("model shape %dx%d: %w", cfg.Classes, cfg.Features, ErrCoordinator)
	}
	if cfg.MinReplies < 0 || cfg.MinReplies > cfg.FL.ClientsPerRound {
		return nil, fmt.Errorf("min replies %d with K=%d: %w", cfg.MinReplies, cfg.FL.ClientsPerRound, ErrCoordinator)
	}
	switch cfg.UploadQuantBits {
	case 0, ml.Quant8, ml.Quant16:
	default:
		return nil, fmt.Errorf("upload quant bits %d: %w", cfg.UploadQuantBits, ErrCoordinator)
	}
	switch cfg.DownloadQuantBits {
	case 0, ml.Quant8, ml.Quant16:
	default:
		return nil, fmt.Errorf("download quant bits %d: %w", cfg.DownloadQuantBits, ErrCoordinator)
	}
	if cfg.RoundTimeout <= 0 {
		cfg.RoundTimeout = 2 * time.Minute
	}
	if cfg.JoinTimeout <= 0 {
		cfg.JoinTimeout = time.Minute
	}
	c := &Coordinator{cfg: cfg, ln: ln}
	// The engine validates cfg.FL.
	eng, err := fl.NewDispatchEngine(cfg.FL, cfg.Classes, cfg.Features, test, &c.mu)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", err, ErrCoordinator)
	}
	c.eng = eng
	return c, nil
}

// Addr returns the listener address (useful with ":0" test listeners).
func (c *Coordinator) Addr() net.Addr { return c.ln.Addr() }

// Global returns a copy of the current global model. (A copy, because the
// coordinator recycles parameter storage across rounds; the returned model
// stays stable however many rounds run afterwards.)
func (c *Coordinator) Global() *ml.Model {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.eng.Global().Clone()
}

// History returns a copy of the completed round records.
func (c *Coordinator) History() []fl.RoundRecord {
	h := c.records()
	return append(make([]fl.RoundRecord, 0, len(h)), h...)
}

// records returns the completed round records without copying. Records are
// never mutated once appended, so the returned slice header stays a valid
// read-only view while later rounds append past its length.
func (c *Coordinator) records() []fl.RoundRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.eng.History()
}

// SetRoundObserver attaches (or, with nil, detaches) a per-round
// observability sink. Networked rounds report the paper-phase timings with
// PhaseTrain covering the full request/reply exchange (local training plus
// both network legs), and fill the Dropped/Rejoins/Retries fault telemetry.
// Safe to call between rounds; a round in flight keeps the observer it
// started with.
func (c *Coordinator) SetRoundObserver(o fl.RoundObserver) { c.eng.SetRoundObserver(o) }

// SetMemSampling toggles per-round memstats sampling for observed rounds.
func (c *Coordinator) SetMemSampling(on bool) { c.eng.SetMemSampling(on) }

// Connected returns how many roster slots currently hold a live connection.
func (c *Coordinator) Connected() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, cl := range c.clients {
		if cl.connected {
			n++
		}
	}
	return n
}

// ensureAcceptLoop starts the background registration loop once. It runs
// until the listener closes, handling joins and mid-training rejoins alike.
func (c *Coordinator) ensureAcceptLoop() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.accepting || c.down {
		return
	}
	c.accepting = true
	go c.acceptLoop()
}

func (c *Coordinator) acceptLoop() {
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			// Listener closed (Shutdown) or fatally broken: stop.
			c.mu.Lock()
			c.accepting = false
			c.mu.Unlock()
			return
		}
		// Handshakes run concurrently so one stalled joiner cannot block
		// the fleet; each is bounded by handshakeTimeout.
		go func() {
			if err := c.register(conn); err != nil {
				// A broken joiner must not kill the run; drop it.
				conn.Close()
			}
		}()
	}
}

// register performs the Join/Welcome or Rejoin/Welcome handshake on a fresh
// connection. A body that is not exactly the ProtoV2 handshake is rejected
// before the roster is touched, and gets no Welcome. The slot turns
// connected (selectable) only once the Welcome is written and the handshake
// deadline cleared, so no round can race the handshake on this connection:
// neither its deadline nor, on metered transports, the Welcome's bytes.
func (c *Coordinator) register(conn net.Conn) error {
	if err := conn.SetDeadline(time.Now().Add(handshakeTimeout)); err != nil {
		return fmt.Errorf("handshake deadline: %w", err)
	}
	t, payload, err := readFrame(conn)
	if err != nil {
		return fmt.Errorf("handshake: %w", err)
	}
	var id int
	var cl *clientConn
	switch t {
	case MsgJoin:
		samples, err := decodeJoin(payload)
		if err != nil {
			return fmt.Errorf("join body: %w", err)
		}
		c.mu.Lock()
		if c.down {
			c.mu.Unlock()
			return fmt.Errorf("join after shutdown: %w", ErrCoordinator)
		}
		id = len(c.clients)
		cl = &clientConn{id: id, conn: conn, samples: int(samples)}
		c.clients = append(c.clients, cl)
		c.mu.Unlock()
	case MsgRejoin:
		rid, samples, err := decodeRejoin(payload)
		if err != nil {
			return fmt.Errorf("rejoin body: %w", err)
		}
		c.mu.Lock()
		if c.down {
			c.mu.Unlock()
			return fmt.Errorf("rejoin after shutdown: %w", ErrCoordinator)
		}
		if int(rid) >= len(c.clients) {
			n := len(c.clients)
			c.mu.Unlock()
			return fmt.Errorf("rejoin of unknown client %d of %d: %w", rid, n, ErrProtocol)
		}
		cl = c.clients[rid]
		if cl.conn != nil && cl.conn != conn {
			cl.conn.Close()
		}
		cl.conn = conn
		cl.samples = int(samples)
		cl.connected = false
		cl.gen++
		// A fresh connection holds no downlink state: the next request
		// must carry the full model, and any in-flight pending
		// reconstruction is void.
		cl.lastSent = nil
		cl.pending = nil
		cl.lastRound = 0
		c.rejoins++
		id = int(rid)
		c.mu.Unlock()
	default:
		return fmt.Errorf("handshake got %v: %w", t, ErrProtocol)
	}
	// On failure the slot stays disconnected, so counts stay truthful; the
	// client retries.
	if err := writeFrame(conn, MsgWelcome, encodeWelcome(uint32(id))); err != nil {
		return fmt.Errorf("welcome: %w", err)
	}
	if err := conn.SetDeadline(time.Time{}); err != nil {
		return fmt.Errorf("clear handshake deadline: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if cl.conn != conn {
		// A newer rejoin of this client superseded the connection.
		return fmt.Errorf("client %d re-registered during the handshake: %w", id, ErrCoordinator)
	}
	cl.connected = true
	return nil
}

// WaitForClients accepts registrations until n edge servers have joined or
// the context/join timeout expires. Registration keeps running in the
// background afterwards, so clients can rejoin mid-training.
func (c *Coordinator) WaitForClients(ctx context.Context, n int) error {
	if n < c.cfg.FL.ClientsPerRound {
		return fmt.Errorf("waiting for %d clients but K=%d: %w", n, c.cfg.FL.ClientsPerRound, ErrCoordinator)
	}
	return c.awaitConnected(ctx, n, c.cfg.JoinTimeout, "wait for clients")
}

// AwaitRoster blocks until n clients are simultaneously connected, the
// timeout passes, or ctx ends. Callers use it between rounds to give
// dropped clients a window to reconnect before the next selection; a
// timeout is not fatal — the next round simply runs on the survivors.
func (c *Coordinator) AwaitRoster(ctx context.Context, n int, timeout time.Duration) error {
	return c.awaitConnected(ctx, n, timeout, "await roster")
}

func (c *Coordinator) awaitConnected(ctx context.Context, n int, timeout time.Duration, what string) error {
	c.ensureAcceptLoop()
	deadline := time.Now().Add(timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		if c.Connected() >= n {
			return nil
		}
		c.mu.Lock()
		down := c.down
		c.mu.Unlock()
		if down {
			return fmt.Errorf("%s: coordinator shut down: %w", what, ErrCoordinator)
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s: %w", what, ctx.Err())
		case <-tick.C:
			if time.Now().After(deadline) {
				return fmt.Errorf("%s: %d of %d connected at timeout: %w",
					what, c.Connected(), n, ErrCoordinator)
			}
		}
	}
}

// awaitRejoin blocks until client id holds a registration newer than gen,
// the RejoinGrace window (capped by the round deadline) passes, or the
// coordinator shuts down. With RejoinGrace unset it declines immediately,
// preserving fail-fast rounds.
func (c *Coordinator) awaitRejoin(id, gen int, deadline time.Time) (net.Conn, int, bool) {
	if c.cfg.RejoinGrace <= 0 {
		return nil, 0, false
	}
	grace := time.Now().Add(c.cfg.RejoinGrace)
	if deadline.Before(grace) {
		grace = deadline
	}
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		c.mu.Lock()
		if c.down || id >= len(c.clients) {
			c.mu.Unlock()
			return nil, 0, false
		}
		cl := c.clients[id]
		if cl.connected && cl.gen > gen {
			conn, g := cl.conn, cl.gen
			c.mu.Unlock()
			return conn, g, true
		}
		c.mu.Unlock()
		if time.Now().After(grace) {
			return nil, 0, false
		}
		<-tick.C
	}
}

// buildFullFrame seals a pooled MsgTrainRequest frame carrying req.Model
// whole. The caller owns the returned buffer (freeFrame when done); the
// sealed image aliases it.
func buildFullFrame(req TrainRequest) (*[]byte, []byte, error) {
	bp := newFrame()
	*bp = appendTrainRequest(*bp, req)
	frame, err := finishFrame(bp, MsgTrainRequest)
	if err != nil {
		freeFrame(bp)
		return nil, nil, err
	}
	return bp, frame, nil
}

// buildResidualFrame seals a pooled request frame carrying the global model
// req.Model as a quantized residual against cl.lastSent, and stages the
// client's exact post-apply reconstruction in cl.pending (error feedback:
// the next residual is computed against what the client actually holds,
// rounding included, so quantization error cannot accumulate). Called with
// the coordinator mutex held.
func (c *Coordinator) buildResidualFrame(cl *clientConn, req TrainRequest, bits ml.QuantBits) (*[]byte, []byte, error) {
	if c.resid == nil {
		c.resid = req.Model.Clone()
	} else if err := c.resid.CopyFrom(req.Model); err != nil {
		return nil, nil, err
	}
	if err := c.resid.AddScaled(-1, cl.lastSent); err != nil {
		return nil, nil, err
	}
	req.DownBits = bits
	req.BaseRound = cl.lastRound
	bp := newFrame()
	*bp = appendTrainRequestHeader(*bp, req)
	bodyStart := len(*bp)
	out, err := ml.AppendQuantized(*bp, c.resid, bits)
	if err != nil {
		freeFrame(bp)
		return nil, nil, err
	}
	*bp = out
	frame, err := finishFrame(bp, MsgTrainRequest)
	if err != nil {
		freeFrame(bp)
		return nil, nil, err
	}
	if c.recon == nil {
		c.recon = &ml.Model{}
	}
	if err := c.recon.DequantizeInto((*bp)[bodyStart:]); err != nil {
		freeFrame(bp)
		return nil, nil, err
	}
	if cl.pending == nil {
		cl.pending = cl.lastSent.Clone()
	} else if err := cl.pending.CopyFrom(cl.lastSent); err != nil {
		freeFrame(bp)
		return nil, nil, err
	}
	if err := cl.pending.AddScaled(1, c.recon); err != nil {
		freeFrame(bp)
		return nil, nil, err
	}
	return bp, frame, nil
}

// Round runs one synchronous FedAvg round over the network: package fl's
// round core draws K_t from the connected roster slots and dispatch
// exchanges the round's request and reply with each selected client. With
// MinReplies set, clients that fail mid-round are dropped from the round
// while the aggregation proceeds over the quorum of survivors; the round
// record lists the casualties. Every failed client is marked disconnected
// until it rejoins, whether or not the round commits.
func (c *Coordinator) Round(ctx context.Context) (fl.RoundRecord, error) {
	c.mu.Lock()
	alive := make([]int, 0, len(c.clients))
	for _, cl := range c.clients {
		if cl.connected {
			cl.candGen = cl.gen
			alive = append(alive, cl.id)
		}
	}
	c.mu.Unlock()
	rec, err := c.eng.RoundWith(alive, c.cfg.MinReplies,
		func(rec fl.RoundRecord) (fl.RoundRecord, []fl.Update, []int, error) {
			return c.dispatch(ctx, rec)
		}, meanLocalLoss)
	if err != nil {
		return fl.RoundRecord{}, fmt.Errorf("%w: %w", err, ErrCoordinator)
	}
	c.mu.Lock()
	c.rejoins -= rec.Rejoins
	c.mu.Unlock()
	return rec, nil
}

// meanLocalLoss is the coordinator's TrainLoss: without the raw shards it
// reports the mean of the replies' final local losses.
func meanLocalLoss(_ *ml.Model, updates []fl.Update) (float64, error) {
	var sum float64
	for _, u := range updates {
		sum += u.Loss
	}
	return sum / float64(len(updates)), nil
}

// dispatch is the round core's wire dispatcher. It sends this round's
// request to every selected client — a quantized residual where the
// client's downlink state allows, else the full model — and collects the
// replies concurrently, re-sending the full model on a fresh connection when
// a failed client rejoins within RejoinGrace. It then commits the downlink
// state of every delivered request, marks every failed connection
// disconnected, and returns the survivors' updates in selection order, the
// record with the round's fault and byte telemetry, and the first failure.
func (c *Coordinator) dispatch(ctx context.Context, rec fl.RoundRecord) (fl.RoundRecord, []fl.Update, []int, error) {
	type target struct {
		id  int
		gen int
		// conn is nil when the slot re-registered after Round listed it:
		// the connection it was selected on is gone.
		conn     net.Conn
		cl       *clientConn
		frame    []byte // sealed request frame (shared between full-model targets)
		residual bool   // frame carries a quantized residual
	}
	round := rec.Round
	req := TrainRequest{
		Round:        round,
		Epochs:       c.cfg.FL.LocalEpochs,
		LearningRate: rec.LearningRate,
		ReplyBits:    c.cfg.UploadQuantBits,
		BaseRound:    round,
		Model:        c.eng.Global(),
	}

	// Build the request frames under the mutex: residuals read (and stage)
	// per-client downlink state. Full-model targets share one sealed frame;
	// residual targets get their own. All pooled buffers are released when
	// dispatch returns.
	var frames []*[]byte
	defer func() {
		for _, bp := range frames {
			freeFrame(bp)
		}
	}()
	var full []byte
	downBits := c.cfg.DownloadQuantBits
	targets := make([]target, len(rec.Selected))
	c.mu.Lock()
	if len(c.clients) == 0 {
		c.mu.Unlock()
		return rec, nil, nil, fmt.Errorf("round %d: coordinator shut down", round)
	}
	for i, id := range rec.Selected {
		cl := c.clients[id]
		tg := &targets[i]
		*tg = target{id: id, gen: cl.candGen, cl: cl}
		if cl.gen == cl.candGen {
			tg.conn = cl.conn
		}
		if downBits != 0 && cl.lastSent != nil {
			bp, frame, err := c.buildResidualFrame(cl, req, downBits)
			if err != nil {
				c.mu.Unlock()
				return rec, nil, nil, fmt.Errorf("round %d residual for client %d: %w", round, id, err)
			}
			frames = append(frames, bp)
			tg.frame, tg.residual = frame, true
			continue
		}
		if full == nil {
			bp, frame, err := buildFullFrame(req)
			if err != nil {
				c.mu.Unlock()
				return rec, nil, nil, fmt.Errorf("round %d request: %w", round, err)
			}
			frames = append(frames, bp)
			full = frame
		}
		tg.frame = full
	}
	c.mu.Unlock()

	type outcome struct {
		rep     TrainReply
		retries int
		err     error
		// gen is the registration generation of the last connection used,
		// so failure marking cannot clobber a connection it never touched;
		// residual describes the frame of the last delivery attempt, which
		// is what the downlink-state commit must mirror.
		gen      int
		residual bool
	}
	results := make([]outcome, len(targets))
	// Downlink (coordinator→client) and uplink (client→coordinator) frame
	// bytes actually exchanged this round — the measured volume the radio
	// energy model prices.
	var txBytes, rxBytes atomic.Int64
	// Datagram transports additionally count packet attempts and
	// deliveries per direction (see dgramMetered); snapshot deltas around
	// each exchange accumulate here.
	var downAttempt, downDelivered, upAttempt, upDelivered atomic.Int64
	var wg sync.WaitGroup
	deadline := time.Now().Add(c.cfg.RoundTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	exchange := func(conn net.Conn, id int, frame []byte, cl *clientConn) (TrainReply, error) {
		if conn == nil {
			return TrainReply{}, fmt.Errorf("client %d re-registered before its request: %w", id, ErrConnLost)
		}
		if m, metered := conn.(dgramMetered); metered {
			// Delta the conn's lifetime counters around this exchange —
			// success or failure, the attempted bytes were spent.
			a0, d0, p0, r0 := m.DgramCounters()
			defer func() {
				a1, d1, p1, r1 := m.DgramCounters()
				downAttempt.Add(a1 - a0)
				downDelivered.Add(d1 - d0)
				upAttempt.Add(p1 - p0)
				upDelivered.Add(r1 - r0)
			}()
		}
		if err := conn.SetDeadline(deadline); err != nil {
			return TrainReply{}, fmt.Errorf("client %d deadline: %w", id, err)
		}
		if _, err := conn.Write(frame); err != nil {
			return TrainReply{}, fmt.Errorf("client %d request: %w", id, err)
		}
		txBytes.Add(int64(len(frame)))
		payload, err := expectFrameInto(conn, MsgTrainReply, &cl.readBuf)
		if err != nil {
			return TrainReply{}, fmt.Errorf("client %d reply: %w", id, err)
		}
		rxBytes.Add(int64(frameHeaderLen + len(payload)))
		if cl.repModel == nil {
			cl.repModel = &ml.Model{}
		}
		rep, err := decodeTrainReplyInto(payload, cl.repModel)
		if err != nil {
			return TrainReply{}, fmt.Errorf("client %d reply body: %w", id, err)
		}
		if rep.Round != round {
			return TrainReply{}, fmt.Errorf("client %d replied for round %d, want %d: %w",
				id, rep.Round, round, ErrProtocol)
		}
		return rep, nil
	}
	for slot, tg := range targets {
		wg.Add(1)
		go func(slot int, tg target) {
			defer wg.Done()
			o := outcome{gen: tg.gen, residual: tg.residual}
			conn, frame := tg.conn, tg.frame
			var retryBp *[]byte
			defer func() {
				if retryBp != nil {
					freeFrame(retryBp)
				}
			}()
			for {
				rep, err := exchange(conn, tg.id, frame, tg.cl)
				if err == nil {
					o.rep = rep
					break
				}
				// In-round repair: if the client re-registers within the
				// grace window, re-send this round's request on its fresh
				// connection instead of dropping it.
				nc, ng, ok := c.awaitRejoin(tg.id, o.gen, deadline)
				if !ok {
					o.err = err
					break
				}
				conn, o.gen = nc, ng
				o.retries++
				// The fresh connection lost all downlink state: re-send as a
				// full model.
				o.residual = false
				if retryBp != nil {
					freeFrame(retryBp)
					retryBp = nil
				}
				var ferr error
				retryBp, frame, ferr = buildFullFrame(req)
				if ferr != nil {
					o.err = ferr
					break
				}
			}
			results[slot] = o
		}(slot, tg)
	}
	wg.Wait()

	// Commit per-client downlink state for every delivered request, whether
	// or not the round later reaches quorum: delivery is a property of the
	// wire, and an edge that received this broadcast holds it as its base.
	// Then mark every failed connection down. The gen checks skip slots
	// that re-registered meanwhile (register already reset their state to
	// full-send, and their fresh connection is not the one that failed).
	c.mu.Lock()
	for slot, tg := range targets {
		o := &results[slot]
		if tg.id >= len(c.clients) {
			continue // roster was torn down by Shutdown
		}
		cl := c.clients[tg.id]
		if cl.gen != o.gen {
			continue
		}
		if o.err == nil {
			if o.residual {
				// The staged reconstruction becomes the client's state; the
				// old state buffer is recycled as the next staging area.
				cl.lastSent, cl.pending = cl.pending, cl.lastSent
			} else if cl.lastSent == nil {
				cl.lastSent = req.Model.Clone()
			} else if err := cl.lastSent.CopyFrom(req.Model); err != nil {
				o.err = fmt.Errorf("client %d downlink state: %w", tg.id, err)
			}
			cl.lastRound = round
		}
		if o.err != nil {
			cl.connected = false
			cl.conn.Close()
		}
	}
	rec.Rejoins = c.rejoins
	c.mu.Unlock()

	var firstErr error
	c.updates = c.updates[:0]
	for slot, o := range results {
		rec.Retries += o.retries
		if o.err != nil {
			rec.Dropped = append(rec.Dropped, targets[slot].id)
			if firstErr == nil {
				firstErr = o.err
			}
			continue
		}
		c.updates = append(c.updates, fl.Update{Client: targets[slot].id, Model: o.rep.Model, Loss: o.rep.Loss})
	}
	rec.DownlinkBytes = txBytes.Load()
	rec.UplinkBytes = rxBytes.Load()
	rec.DownlinkAttemptBytes = downAttempt.Load()
	rec.DownlinkDeliveredBytes = downDelivered.Load()
	rec.UplinkAttemptBytes = upAttempt.Load()
	rec.UplinkDeliveredBytes = upDelivered.Load()
	return rec, c.updates, nil, firstErr
}

// Run drives rounds until stop fires, then broadcasts shutdown.
func (c *Coordinator) Run(ctx context.Context, stop fl.StopCondition) ([]fl.RoundRecord, error) {
	if stop == nil {
		return nil, fmt.Errorf("nil stop condition: %w", ErrCoordinator)
	}
	for !stop(c.records()) {
		if err := ctx.Err(); err != nil {
			return c.History(), fmt.Errorf("run: %w", err)
		}
		if _, err := c.Round(ctx); err != nil {
			return c.History(), err
		}
	}
	c.Shutdown()
	return c.History(), nil
}

// Shutdown notifies every client and closes all connections plus the
// listener, which also stops the background registration loop. Safe to call
// multiple times and concurrently with rounds in flight (those rounds fail
// with connection errors).
func (c *Coordinator) Shutdown() {
	c.mu.Lock()
	c.down = true
	clients := c.clients
	c.clients = nil
	c.mu.Unlock()
	for _, cl := range clients {
		if cl.conn == nil {
			continue
		}
		// Best-effort farewell; the close that follows is the real signal.
		cl.conn.SetDeadline(time.Now().Add(2 * time.Second))
		if err := writeFrame(cl.conn, MsgShutdown, nil); err != nil {
			// The client may already be gone — closing below is enough.
			_ = err
		}
		cl.conn.Close()
	}
	c.ln.Close()
}
