package flnet

import (
	"bytes"
	"net"
	"testing"
	"time"

	"eefei/internal/fl"
	"eefei/internal/ml"
)

// Fuzzers for every decode path reachable from the network: a malicious or
// corrupt peer must produce errors, never panics or huge allocations.

func FuzzReadFrame(f *testing.F) {
	var seed bytes.Buffer
	_ = writeFrame(&seed, MsgJoin, encodeJoin(3000))
	f.Add(seed.Bytes())
	f.Add([]byte{0, 0, 0, 1, byte(MsgShutdown)})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Must not panic; errors are expected and fine.
		_, _, _ = readFrame(bytes.NewReader(data))
	})
}

// FuzzDecodeTrainRequest drives the full-model request path: whatever
// decodes as a full-model header must carry a body that either decodes to a
// usable model or errors.
func FuzzDecodeTrainRequest(f *testing.F) {
	m := ml.NewModel(2, 3, ml.Softmax)
	f.Add(appendTrainRequest(nil, TrainRequest{Round: 1, Epochs: 2, LearningRate: 0.1, Model: m}))
	f.Add([]byte{})
	f.Add(make([]byte, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, body, err := decodeTrainRequest(data)
		if err != nil || req.DownBits != 0 {
			return
		}
		var got ml.Model
		if err := got.UnmarshalBinaryReuse(body); err == nil {
			// A successful decode must yield a usable model.
			if got.Classes() <= 0 || got.Features() <= 0 {
				t.Fatalf("decode accepted an unusable request model: %+v", req)
			}
		}
	})
}

// FuzzDecodeTrainRequestV2 drives the request header invariants across both
// downlink codecs (full model and quantized residual).
func FuzzDecodeTrainRequestV2(f *testing.F) {
	m := ml.NewModel(2, 3, ml.Softmax)
	full := appendTrainRequest(nil, TrainRequest{Round: 2, Epochs: 1, LearningRate: 0.1, Model: m})
	f.Add(full)
	resid := appendTrainRequestHeader(nil, TrainRequest{Round: 2, BaseRound: 1, DownBits: ml.Quant8, Epochs: 1, LearningRate: 0.1})
	resid, err := ml.AppendQuantized(resid, m, ml.Quant8)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(resid)
	// Truncated residual: valid header, short quantized body.
	f.Add(resid[:len(resid)-3])
	// Header-only, empty, and a reserved-byte violation.
	f.Add(full[:trainReqHeaderLen])
	f.Add([]byte{})
	bad := append([]byte(nil), full...)
	bad[21] = 0xff
	f.Add(bad)
	f.Fuzz(func(t *testing.T, data []byte) {
		req, body, err := decodeTrainRequest(data)
		if err != nil {
			return
		}
		// Whatever decodes must satisfy the header invariants the edge
		// relies on, and the body must either decode or error — no panics.
		if req.DownBits == 0 && req.BaseRound != req.Round {
			t.Fatalf("full request with base %d != round %d accepted", req.BaseRound, req.Round)
		}
		if req.BaseRound > req.Round {
			t.Fatalf("future base round accepted: %+v", req)
		}
		var scratch ml.Model
		if req.DownBits == 0 {
			_ = scratch.UnmarshalBinaryReuse(body)
		} else {
			_ = scratch.DequantizeInto(body)
		}
	})
}

func FuzzDecodeTrainReply(f *testing.F) {
	m := ml.NewModel(2, 3, ml.Sigmoid)
	full, err := encodeTrainReply(TrainReply{Round: 1, Loss: 0.5, Samples: 10, Model: m})
	if err != nil {
		f.Fatal(err)
	}
	quant, err := encodeTrainReply(TrainReply{Round: 1, Loss: 0.5, Samples: 10, Bits: ml.Quant8, Model: m})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(full)
	f.Add(quant)
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := decodeTrainReply(data)
		if err == nil {
			if rep.Model == nil || rep.Model.Classes() <= 0 {
				t.Fatalf("decode accepted an unusable reply: %+v", rep)
			}
		}
	})
}

// fuzzAddr / fuzzConn form a non-blocking net.Conn over an in-memory byte
// slice: reads drain the slice then return EOF, writes always succeed. The
// register handshake can therefore never block on it, so every fuzz
// iteration terminates — a hang would surface as the fuzzer timing out.
type fuzzAddr struct{}

func (fuzzAddr) Network() string { return "fuzz" }
func (fuzzAddr) String() string  { return "fuzz" }

type fuzzConn struct{ r *bytes.Reader }

func (c *fuzzConn) Read(p []byte) (int, error)         { return c.r.Read(p) }
func (c *fuzzConn) Write(p []byte) (int, error)        { return len(p), nil }
func (c *fuzzConn) Close() error                       { return nil }
func (c *fuzzConn) LocalAddr() net.Addr                { return fuzzAddr{} }
func (c *fuzzConn) RemoteAddr() net.Addr               { return fuzzAddr{} }
func (c *fuzzConn) SetDeadline(time.Time) error        { return nil }
func (c *fuzzConn) SetReadDeadline(t time.Time) error  { return nil }
func (c *fuzzConn) SetWriteDeadline(t time.Time) error { return nil }

// FuzzRejoinHandshake feeds arbitrary bytes into the coordinator's
// registration handshake — the frame a reconnecting (or malicious) edge
// sends first. Malformed joins and re-registrations must produce errors,
// never panics, and must leave the roster consistent.
func FuzzRejoinHandshake(f *testing.F) {
	var join bytes.Buffer
	_ = writeFrame(&join, MsgJoin, encodeJoin(50))
	f.Add(join.Bytes())
	var rejoin bytes.Buffer
	_ = writeFrame(&rejoin, MsgRejoin, encodeRejoin(0, 50))
	f.Add(rejoin.Bytes())
	var unknown bytes.Buffer
	_ = writeFrame(&unknown, MsgRejoin, encodeRejoin(9999, 50))
	f.Add(unknown.Bytes())
	var short bytes.Buffer
	_ = writeFrame(&short, MsgRejoin, []byte{1, 2})
	f.Add(short.Bytes())
	var wrongType bytes.Buffer
	_ = writeFrame(&wrongType, MsgTrainReply, encodeRejoin(0, 50))
	f.Add(wrongType.Bytes())
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 42})
	f.Add([]byte{})
	// Handshakes that are not exactly ProtoV2: the retired version-less
	// 4-byte Join and 8-byte Rejoin bodies, and version bytes 1 and 250.
	var joinBare bytes.Buffer
	_ = writeFrame(&joinBare, MsgJoin, []byte{50, 0, 0, 0})
	f.Add(joinBare.Bytes())
	var rejoinBare bytes.Buffer
	_ = writeFrame(&rejoinBare, MsgRejoin, []byte{0, 0, 0, 0, 50, 0, 0, 0})
	f.Add(rejoinBare.Bytes())
	var joinBadVer bytes.Buffer
	_ = writeFrame(&joinBadVer, MsgJoin, []byte{50, 0, 0, 0, 1})
	f.Add(joinBadVer.Bytes())
	var joinFuture bytes.Buffer
	_ = writeFrame(&joinFuture, MsgJoin, []byte{50, 0, 0, 0, 250})
	f.Add(joinFuture.Bytes())
	// Oversized length prefix: promises maxFrameBytes+1, must be rejected
	// deterministically before any allocation of that size.
	f.Add([]byte{0x04, 0x00, 0x00, 0x01, byte(MsgJoin)})

	f.Fuzz(func(t *testing.T, data []byte) {
		// A fresh in-package coordinator with one pre-registered client, so
		// rejoin frames can hit both the known-id and unknown-id paths.
		c := &Coordinator{
			cfg: CoordinatorConfig{
				FL:       fl.Config{ClientsPerRound: 1, LocalEpochs: 1, LearningRate: 0.1},
				Classes:  2,
				Features: 3,
			},
		}
		c.clients = []*clientConn{{
			id:        0,
			conn:      &fuzzConn{r: bytes.NewReader(nil)},
			samples:   5,
			connected: true,
		}}

		_ = c.register(&fuzzConn{r: bytes.NewReader(data)})

		// Roster invariants survive any input: slot 0 still exists under
		// its id, and at most one new slot was appended with the next id.
		if len(c.clients) < 1 || len(c.clients) > 2 {
			t.Fatalf("roster has %d slots after one handshake", len(c.clients))
		}
		for i, cl := range c.clients {
			if cl.id != i {
				t.Fatalf("slot %d holds id %d", i, cl.id)
			}
			if cl.conn == nil {
				t.Fatalf("slot %d lost its connection", i)
			}
		}
	})
}
