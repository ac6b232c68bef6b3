package flnet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"eefei/internal/dataset"
	"eefei/internal/mat"
	"eefei/internal/ml"
)

// ErrEdge is returned (wrapped) for edge-server-side failures.
var ErrEdge = errors.New("flnet: edge server error")

// ErrConnLost is returned (wrapped) by Serve when the coordinator link
// fails mid-stream — EOF, an I/O error, or an unsynchronized/corrupt frame
// — i.e. for every condition a reconnect could repair. A clean MsgShutdown
// returns nil instead.
var ErrConnLost = errors.New("flnet: connection lost")

// ErrRetriesExhausted is returned (wrapped) by RunEdgeServer once the retry
// policy's attempt budget is spent without a usable connection.
var ErrRetriesExhausted = errors.New("flnet: retries exhausted")

// EdgeConfig configures one networked edge server.
type EdgeConfig struct {
	// Addr is the coordinator's TCP address.
	Addr string
	// Shard is this server's local dataset.
	Shard *dataset.Dataset
	// BatchSize is the local mini-batch size; 0 selects full batch.
	BatchSize int
	// DialTimeout bounds each connection attempt. Zero selects 10 s.
	DialTimeout time.Duration
	// Seed drives local mini-batch shuffling and retry jitter.
	Seed uint64
	// Counters, when non-nil, accumulates frame-level TX/RX byte counts
	// across every connection this config opens (handshakes included) —
	// the measured transfer volume the radio energy model prices.
	Counters *WireCounters
	// Retry enables automatic redial plus re-registration after a
	// connection failure. The zero value keeps the legacy fail-fast
	// behaviour: one attempt, and an abrupt coordinator disappearance is
	// treated as shutdown.
	Retry RetryPolicy
	// Dial overrides the transport dialer — fault injection and tests hook
	// in here. Nil selects net.DialTimeout("tcp", addr, timeout).
	Dial func(addr string, timeout time.Duration) (net.Conn, error)

	// sleep overrides the backoff pause between reconnect attempts so tests
	// can record the schedule without waiting it out. Nil selects sleepCtx.
	sleep func(ctx context.Context, d time.Duration) error
}

func (cfg EdgeConfig) dialer() func(string, time.Duration) (net.Conn, error) {
	if cfg.Dial != nil {
		return cfg.Dial
	}
	return func(addr string, timeout time.Duration) (net.Conn, error) {
		return net.DialTimeout("tcp", addr, timeout)
	}
}

// EdgeServer is a connected, registered edge server.
type EdgeServer struct {
	cfg  EdgeConfig
	conn net.Conn
	id   int

	// Per-connection scratch for the zero-copy round path. readBuf is the
	// frame read scratch; base is the reconstructed global model the
	// residual downlink accumulates into (full-model requests overwrite it
	// whole); work is the model actually trained (a copy of base, so base
	// stays the pristine broadcast residuals apply to); resid is the
	// dequantized-residual scratch; sgd persists its shuffle scratch.
	readBuf   []byte
	base      *ml.Model
	haveBase  bool
	baseRound int
	work      *ml.Model
	resid     *ml.Model
	sgd       *ml.SGD
}

// dialAs performs one connection attempt. rejoinID < 0 registers fresh
// (MsgJoin); otherwise the edge re-registers its previous id (MsgRejoin)
// and the coordinator must echo it back.
func dialAs(cfg EdgeConfig, rejoinID int) (*EdgeServer, error) {
	if cfg.Shard == nil || cfg.Shard.Len() == 0 {
		return nil, fmt.Errorf("empty shard: %w", ErrEdge)
	}
	if err := cfg.Shard.Validate(); err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	timeout := cfg.DialTimeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	conn, err := cfg.dialer()(cfg.Addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", cfg.Addr, err)
	}
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		conn.Close()
		return nil, fmt.Errorf("handshake deadline: %w", err)
	}
	var regBody []byte
	var regType MsgType
	if rejoinID < 0 {
		regType = MsgJoin
		regBody = encodeJoin(uint32(cfg.Shard.Len()))
	} else {
		regType = MsgRejoin
		regBody = encodeRejoin(uint32(rejoinID), uint32(cfg.Shard.Len()))
	}
	if err := writeFrame(conn, regType, regBody); err != nil {
		conn.Close()
		return nil, fmt.Errorf("register: %w", err)
	}
	cfg.Counters.AddTx(frameHeaderLen + len(regBody))
	payload, err := expectFrame(conn, MsgWelcome)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("welcome: %w", err)
	}
	cfg.Counters.AddRx(frameHeaderLen + len(payload))
	id, err := decodeWelcome(payload)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("welcome body: %w", err)
	}
	if rejoinID >= 0 && int(id) != rejoinID {
		conn.Close()
		return nil, fmt.Errorf("rejoin as %d welcomed as %d: %w", rejoinID, id, ErrProtocol)
	}
	// Registration is complete. The handshake deadline is cleared by Serve,
	// so a connection that dies right after the Welcome is a lost session
	// (ErrConnLost), not a failed dial.
	return &EdgeServer{cfg: cfg, conn: conn, id: int(id)}, nil
}

// ID returns the coordinator-assigned client id.
func (e *EdgeServer) ID() int { return e.id }

// Close tears down the connection.
func (e *EdgeServer) Close() error { return e.conn.Close() }

// Serve processes training requests until the coordinator shuts down, the
// connection drops, or ctx is cancelled. A clean shutdown (MsgShutdown)
// returns nil; connection failures of any kind — including corrupt or
// out-of-sync frames — return an error wrapping ErrConnLost so callers can
// reconnect; cancellation returns the context's error.
func (e *EdgeServer) Serve(ctx context.Context) error {
	// Clear the handshake deadline before the ctx watcher can set its own.
	if err := e.conn.SetDeadline(time.Time{}); err != nil {
		return fmt.Errorf("clear handshake deadline: %v: %w", err, ErrConnLost)
	}
	// Watch ctx in the background: cancelling unblocks the read below.
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			// Force the blocked read to return.
			e.conn.SetReadDeadline(time.Now())
		case <-done:
		}
	}()

	for {
		t, payload, err := readFrameInto(e.conn, &e.readBuf)
		if err != nil {
			if ctx.Err() != nil {
				return fmt.Errorf("serve: %w", ctx.Err())
			}
			return fmt.Errorf("serve read: %v: %w", err, ErrConnLost)
		}
		e.cfg.Counters.AddRx(frameHeaderLen + len(payload))
		switch t {
		case MsgShutdown:
			return nil
		case MsgTrainRequest:
			if err := e.handleTrain(payload); err != nil {
				if ctx.Err() != nil {
					return fmt.Errorf("serve: %w", ctx.Err())
				}
				return err
			}
		default:
			// An unexpected type means the stream is out of sync (e.g. a
			// corrupt length prefix): reconnecting is the only repair.
			return fmt.Errorf("unexpected %v frame: %w", t, ErrConnLost)
		}
	}
}

// decodeRequest parses a train request and reconstructs the broadcast
// global model into e.base: full-model requests overwrite it, residual
// requests apply the quantized delta against the broadcast this connection
// last acknowledged.
// Wire and state mismatches wrap ErrConnLost: a reconnect resets both ends
// to a full-model send, which is the repair.
func (e *EdgeServer) decodeRequest(payload []byte) (TrainRequest, error) {
	req, body, err := decodeTrainRequest(payload)
	if err != nil {
		return TrainRequest{}, fmt.Errorf("train request: %v: %w", err, ErrConnLost)
	}
	if e.base == nil {
		e.base = &ml.Model{}
	}
	if req.DownBits == 0 {
		if err := e.base.UnmarshalBinaryReuse(body); err != nil {
			return TrainRequest{}, fmt.Errorf("round %d request model: %v: %w", req.Round, err, ErrConnLost)
		}
	} else {
		if !e.haveBase {
			return TrainRequest{}, fmt.Errorf("round %d residual without a base model: %w",
				req.Round, ErrConnLost)
		}
		if req.BaseRound != e.baseRound {
			return TrainRequest{}, fmt.Errorf("round %d residual against round %d, have round %d: %w",
				req.Round, req.BaseRound, e.baseRound, ErrConnLost)
		}
		if e.resid == nil {
			e.resid = &ml.Model{}
		}
		if err := e.resid.DequantizeInto(body); err != nil {
			return TrainRequest{}, fmt.Errorf("round %d residual: %v: %w", req.Round, err, ErrConnLost)
		}
		if err := e.base.AddScaled(1, e.resid); err != nil {
			return TrainRequest{}, fmt.Errorf("round %d apply residual: %v: %w", req.Round, err, ErrConnLost)
		}
	}
	e.haveBase = true
	e.baseRound = req.Round
	return req, nil
}

// handleTrain runs the requested local epochs and replies with the updated
// model. Wire-level failures wrap ErrConnLost; local training failures are
// returned as-is (retrying would rerun the same broken computation).
func (e *EdgeServer) handleTrain(payload []byte) error {
	req, err := e.decodeRequest(payload)
	if err != nil {
		return err
	}
	// Train a copy so base stays the pristine broadcast future residuals
	// apply to.
	if e.work == nil || e.work.Classes() != e.base.Classes() || e.work.Features() != e.base.Features() {
		e.work = e.base.Clone()
	} else if err := e.work.CopyFrom(e.base); err != nil {
		return fmt.Errorf("round %d work copy: %w", req.Round, err)
	}
	sgdCfg := ml.SGDConfig{
		LearningRate: req.LearningRate,
		BatchSize:    e.cfg.BatchSize,
		Seed:         e.cfg.Seed ^ uint64(req.Round)<<16,
	}
	if e.sgd == nil {
		e.sgd, err = ml.NewSGD(sgdCfg)
	} else {
		err = e.sgd.Reset(sgdCfg)
	}
	if err != nil {
		return fmt.Errorf("round %d sgd: %w", req.Round, err)
	}
	loss, err := e.sgd.TrainFinal(e.work, e.cfg.Shard, req.Epochs)
	if err != nil {
		return fmt.Errorf("round %d train: %w", req.Round, err)
	}
	rep := TrainReply{
		Round:   req.Round,
		Loss:    loss,
		Samples: e.cfg.Shard.Len(),
		Bits:    req.ReplyBits,
		Model:   e.work,
	}
	bp := newFrame()
	defer freeFrame(bp)
	out, err := appendTrainReply(*bp, rep)
	if err != nil {
		return err
	}
	*bp = out
	n, err := writeFrameBuf(e.conn, MsgTrainReply, bp)
	if err != nil {
		return fmt.Errorf("round %d reply: %v: %w", req.Round, err, ErrConnLost)
	}
	e.cfg.Counters.AddTx(n)
	return nil
}

// RunEdgeServer dials, serves, and — when cfg.Retry is enabled — redials
// with capped exponential backoff and re-registers under its original id
// after every lost connection: the whole life of one edge-server process,
// as cmd/fededge uses it. With retries disabled it preserves the legacy
// single-attempt behaviour, where an abrupt coordinator disappearance after
// registration counts as a shutdown.
func RunEdgeServer(ctx context.Context, cfg EdgeConfig) error {
	// The jitter stream is deliberately independent of the training seeds
	// derived from cfg.Seed elsewhere.
	jitter := mat.NewRNG(cfg.Seed ^ 0x7c159e3779b97f4a)
	sleep := cfg.sleep
	if sleep == nil {
		sleep = sleepCtx
	}
	id := -1
	failures := 0
	for {
		srv, err := dialAs(cfg, id)
		if err != nil {
			if ctx.Err() != nil {
				return fmt.Errorf("connect: %w", ctx.Err())
			}
			failures++
			if failures > cfg.Retry.MaxAttempts {
				if !cfg.Retry.Enabled() {
					return err
				}
				return fmt.Errorf("connect failed %d times, last: %v: %w",
					failures, err, ErrRetriesExhausted)
			}
			if err := sleep(ctx, cfg.Retry.Backoff(failures, jitter)); err != nil {
				return err
			}
			continue
		}
		failures = 0
		id = srv.ID()
		err = srv.Serve(ctx)
		srv.Close()
		switch {
		case err == nil:
			return nil
		case ctx.Err() != nil:
			return err
		case !errors.Is(err, ErrConnLost):
			return err
		case !cfg.Retry.Enabled():
			// Legacy semantics: the coordinator went away without a
			// farewell — treat as shutdown.
			return nil
		}
		// Connection lost with retries enabled: loop re-registers as id.
	}
}
