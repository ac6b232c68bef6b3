// Package flnet is the networked counterpart of package fl: a coordinator
// server and edge-server clients speaking a compact length-prefixed binary
// protocol over TCP. It exists so the system can actually be deployed the
// way the paper's prototype was — one coordinator laptop, N Raspberry-Pi
// edge servers on a LAN — rather than only simulated in-process.
//
// Wire format: every message is a frame
//
//	uint32   big-endian payload length (excluding these 4 bytes)
//	byte     message type
//	payload  type-specific binary (little-endian fixed-width fields,
//	         models in ml's own serialization)
//
// The protocol is strictly request/reply per connection, so no concurrent
// writes occur on a single conn.
//
// There is exactly one protocol version, ProtoV2. Every Join, Rejoin and
// Welcome body ends in a version byte that must equal it; a body of any
// other length or version is rejected, never downgraded. MsgTrainRequest
// carries a downlink codec in its header: the global model travels either
// whole or as a quantized residual against the last broadcast the client
// acknowledged, cutting downlink bytes ~64/bits-fold. The hot path on both
// ends runs over pooled frame buffers: one coalesced write per frame, reads
// into capacity-tracked scratch, and model bodies encoded/decoded directly
// in the frame buffer.
package flnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"eefei/internal/ml"
)

// MsgType identifies a protocol frame.
type MsgType byte

const (
	// MsgJoin is sent by an edge server immediately after dialing:
	// payload = uint32 sample count of its local shard, then the ProtoV2
	// version byte (5 bytes).
	MsgJoin MsgType = iota + 1
	// MsgWelcome is the coordinator's reply to MsgJoin or MsgRejoin:
	// payload = uint32 assigned client id, then the ProtoV2 version byte
	// (5 bytes).
	MsgWelcome
	// MsgTrainRequest asks a client to run local training: payload = the
	// fixed header described at trainReqHeaderLen, then the model body in
	// the header's downlink codec.
	MsgTrainRequest
	// MsgTrainReply returns the locally trained model:
	// payload = uint32 round, float64 final local loss, uint32 samples,
	// uint32 bits, model in the bits codec.
	MsgTrainReply
	// MsgShutdown tells a client training is over; payload is empty.
	MsgShutdown
	// MsgRejoin re-registers a previously welcomed client after a
	// reconnect: payload = uint32 previously assigned client id, uint32
	// sample count, then the ProtoV2 version byte (9 bytes). The
	// coordinator replies MsgWelcome echoing the same id and revives the
	// client's roster slot.
	MsgRejoin
)

// String implements fmt.Stringer.
func (m MsgType) String() string {
	switch m {
	case MsgJoin:
		return "join"
	case MsgWelcome:
		return "welcome"
	case MsgTrainRequest:
		return "train-request"
	case MsgTrainReply:
		return "train-reply"
	case MsgShutdown:
		return "shutdown"
	case MsgRejoin:
		return "rejoin"
	default:
		return fmt.Sprintf("MsgType(%d)", byte(m))
	}
}

// ProtoV2 is the wire protocol version every handshake body carries in its
// final byte. Both ends require it exactly; there is no negotiation.
const ProtoV2 byte = 2

// ErrProtocol is returned (wrapped) for malformed or unexpected frames.
var ErrProtocol = errors.New("flnet: protocol error")

// maxFrameBytes caps a frame so a corrupt peer cannot force a huge
// allocation; 64 MiB comfortably covers any linear model we train.
const maxFrameBytes = 64 << 20

// frameHeaderLen is the length prefix plus the type byte.
const frameHeaderLen = 5

// framePool recycles whole-frame buffers (header + payload built in one
// slice) across rounds and connections. Buffers are handed out with the
// header bytes reserved so payload encoders can append directly and
// finishFrame can patch the header in place for a single coalesced write.
var framePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// newFrame returns a pooled buffer primed with frameHeaderLen reserved
// bytes. Append the payload to *bp, then seal with finishFrame and release
// with freeFrame.
func newFrame() *[]byte {
	bp := framePool.Get().(*[]byte)
	*bp = append((*bp)[:0], 0, 0, 0, 0, 0)
	return bp
}

// freeFrame returns a frame buffer to the pool.
func freeFrame(bp *[]byte) { framePool.Put(bp) }

// finishFrame patches the length prefix and type byte into the header bytes
// reserved by newFrame and returns the complete wire image (aliasing *bp).
func finishFrame(bp *[]byte, t MsgType) ([]byte, error) {
	buf := *bp
	payload := len(buf) - frameHeaderLen
	if payload+1 > maxFrameBytes {
		return nil, fmt.Errorf("frame of %d bytes exceeds cap: %w", payload, ErrProtocol)
	}
	binary.BigEndian.PutUint32(buf[:4], uint32(payload+1))
	buf[4] = byte(t)
	return buf, nil
}

// writeFrame sends one frame as a single coalesced write — header, type and
// payload staged in a pooled buffer, so steady-state frames cost zero heap
// allocations and exactly one syscall on a net.Conn.
func writeFrame(w io.Writer, t MsgType, payload []byte) error {
	bp := newFrame()
	defer freeFrame(bp)
	*bp = append(*bp, payload...)
	buf, err := finishFrame(bp, t)
	if err != nil {
		return err
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("write %v frame: %w", t, err)
	}
	return nil
}

// writeFrameBuf seals a frame built directly in a pooled buffer (newFrame +
// payload appends) and writes it in one call, returning the bytes put on the
// wire. The buffer is not released; the caller owns it.
func writeFrameBuf(w io.Writer, t MsgType, bp *[]byte) (int, error) {
	buf, err := finishFrame(bp, t)
	if err != nil {
		return 0, err
	}
	if _, err := w.Write(buf); err != nil {
		return 0, fmt.Errorf("write %v frame: %w", t, err)
	}
	return len(buf), nil
}

// readFrame reads one frame into freshly allocated storage. Handshake and
// test paths use it; the per-round hot paths use readFrameInto.
func readFrame(r io.Reader) (MsgType, []byte, error) {
	var scratch []byte
	return readFrameInto(r, &scratch)
}

// readFrameInto reads one frame into *scratch, growing it only when the
// frame exceeds its capacity. The returned payload aliases *scratch and is
// valid until the next call with the same scratch. The length prefix is read
// into the scratch buffer too (not a stack array, which would escape through
// the io.Reader interface and cost one heap object per frame).
func readFrameInto(r io.Reader, scratch *[]byte) (MsgType, []byte, error) {
	if cap(*scratch) < 4 {
		*scratch = make([]byte, 0, 4096)
	}
	lenBuf := (*scratch)[:4]
	if _, err := io.ReadFull(r, lenBuf); err != nil {
		return 0, nil, fmt.Errorf("read frame length: %w", err)
	}
	n := binary.BigEndian.Uint32(lenBuf)
	if n == 0 || n > maxFrameBytes {
		return 0, nil, fmt.Errorf("frame length %d: %w", n, ErrProtocol)
	}
	if cap(*scratch) < int(n) {
		*scratch = make([]byte, n)
	}
	body := (*scratch)[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, fmt.Errorf("read frame body: %w", err)
	}
	return MsgType(body[0]), body[1:], nil
}

// expectFrame reads a frame and verifies its type.
func expectFrame(r io.Reader, want MsgType) ([]byte, error) {
	var scratch []byte
	return expectFrameInto(r, want, &scratch)
}

// expectFrameInto is expectFrame reading into reusable scratch.
func expectFrameInto(r io.Reader, want MsgType, scratch *[]byte) ([]byte, error) {
	got, payload, err := readFrameInto(r, scratch)
	if err != nil {
		return nil, err
	}
	if got != want {
		return nil, fmt.Errorf("got %v, want %v: %w", got, want, ErrProtocol)
	}
	return payload, nil
}

// --- message bodies ---------------------------------------------------------

// TrainRequest is the decoded form of MsgTrainRequest.
type TrainRequest struct {
	Round        int
	Epochs       int
	LearningRate float64
	// ReplyBits asks the client to quantize its uploaded model to the given
	// width (0 = full-precision float64). Quantized uploads shrink the
	// radio payload ~64/bits-fold — a direct e^U energy reduction.
	ReplyBits ml.QuantBits
	// DownBits records the codec the request's model body travelled in:
	// 0 = full float64 model, Quant8/Quant16 = quantized residual against
	// the BaseRound broadcast.
	DownBits ml.QuantBits
	// BaseRound is the round whose broadcast the residual applies to; equal
	// to Round for full-model requests.
	BaseRound int
	Model     *ml.Model
}

// trainReqHeaderLen is the fixed request header:
//
//	uint32  round
//	uint32  epochs
//	float64 learning rate
//	uint32  reply bits
//	uint8   downlink bits (0 = body is a full EFM model; 8/16 = body is an
//	        EFQ-quantized residual against the BaseRound broadcast)
//	uint8   reserved, must be zero
//	uint32  base round (== round for full-model requests)
//
// followed by the model body.
const trainReqHeaderLen = 26

// appendTrainRequestHeader appends the request header to dst; the caller
// then appends the model body (ml.Model.AppendBinary or ml.AppendQuantized).
func appendTrainRequestHeader(dst []byte, req TrainRequest) []byte {
	var h [trainReqHeaderLen]byte
	binary.LittleEndian.PutUint32(h[0:4], uint32(req.Round))
	binary.LittleEndian.PutUint32(h[4:8], uint32(req.Epochs))
	binary.LittleEndian.PutUint64(h[8:16], math.Float64bits(req.LearningRate))
	binary.LittleEndian.PutUint32(h[16:20], uint32(req.ReplyBits))
	h[20] = byte(req.DownBits)
	h[21] = 0
	binary.LittleEndian.PutUint32(h[22:26], uint32(req.BaseRound))
	return append(dst, h[:]...)
}

// appendTrainRequest appends a full-model request to dst: the header with
// DownBits 0 and BaseRound = Round, then req.Model in float64.
func appendTrainRequest(dst []byte, req TrainRequest) []byte {
	req.DownBits = 0
	req.BaseRound = req.Round
	return req.Model.AppendBinary(appendTrainRequestHeader(dst, req))
}

// decodeTrainRequest parses a request header. The returned request's Model
// is nil; the raw model body (aliasing payload) comes back separately so the
// edge can decode it into long-lived scratch according to DownBits.
func decodeTrainRequest(payload []byte) (req TrainRequest, body []byte, err error) {
	if len(payload) < trainReqHeaderLen {
		return TrainRequest{}, nil, fmt.Errorf("train request of %d bytes: %w", len(payload), ErrProtocol)
	}
	req.Round = int(binary.LittleEndian.Uint32(payload[0:4]))
	req.Epochs = int(binary.LittleEndian.Uint32(payload[4:8]))
	req.LearningRate = math.Float64frombits(binary.LittleEndian.Uint64(payload[8:16]))
	req.ReplyBits = ml.QuantBits(binary.LittleEndian.Uint32(payload[16:20]))
	switch req.ReplyBits {
	case 0, ml.Quant8, ml.Quant16:
	default:
		return TrainRequest{}, nil, fmt.Errorf("reply bits %d: %w", req.ReplyBits, ErrProtocol)
	}
	req.DownBits = ml.QuantBits(payload[20])
	switch req.DownBits {
	case 0, ml.Quant8, ml.Quant16:
	default:
		return TrainRequest{}, nil, fmt.Errorf("downlink bits %d: %w", req.DownBits, ErrProtocol)
	}
	if payload[21] != 0 {
		return TrainRequest{}, nil, fmt.Errorf("reserved byte %d: %w", payload[21], ErrProtocol)
	}
	req.BaseRound = int(binary.LittleEndian.Uint32(payload[22:26]))
	if req.DownBits == 0 {
		if req.BaseRound != req.Round {
			return TrainRequest{}, nil, fmt.Errorf("full request base round %d != round %d: %w",
				req.BaseRound, req.Round, ErrProtocol)
		}
	} else if req.BaseRound > req.Round {
		return TrainRequest{}, nil, fmt.Errorf("residual base round %d > round %d: %w",
			req.BaseRound, req.Round, ErrProtocol)
	}
	body = payload[trainReqHeaderLen:]
	if len(body) == 0 {
		return TrainRequest{}, nil, fmt.Errorf("train request without model body: %w", ErrProtocol)
	}
	return req, body, nil
}

// TrainReply is the decoded form of MsgTrainReply.
type TrainReply struct {
	Round   int
	Loss    float64
	Samples int
	// Bits records the codec the model travelled in (0 = float64). The
	// decoded Model is always full precision; quantization error, if any,
	// was incurred on the wire.
	Bits ml.QuantBits
	// WireBytes is the size of the encoded model payload, which upload
	// energy is proportional to.
	WireBytes int
	Model     *ml.Model
}

// trainRepHeaderLen is the fixed reply header: round, loss, samples, bits.
const trainRepHeaderLen = 20

// appendTrainReply appends the reply encoding (header + model in the
// rep.Bits codec) to dst — the zero-copy path writing straight into a
// pooled frame buffer.
func appendTrainReply(dst []byte, rep TrainReply) ([]byte, error) {
	var h [trainRepHeaderLen]byte
	binary.LittleEndian.PutUint32(h[0:4], uint32(rep.Round))
	binary.LittleEndian.PutUint64(h[4:12], math.Float64bits(rep.Loss))
	binary.LittleEndian.PutUint32(h[12:16], uint32(rep.Samples))
	binary.LittleEndian.PutUint32(h[16:20], uint32(rep.Bits))
	dst = append(dst, h[:]...)
	switch rep.Bits {
	case 0:
		return rep.Model.AppendBinary(dst), nil
	case ml.Quant8, ml.Quant16:
		out, err := ml.AppendQuantized(dst, rep.Model, rep.Bits)
		if err != nil {
			return nil, fmt.Errorf("encode reply model: %w", err)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("reply bits %d: %w", rep.Bits, ErrProtocol)
	}
}

// decodeTrainReplyInto decodes a reply, reusing m's parameter storage for
// the model body when shapes match (the coordinator keeps one scratch model
// per roster slot, making warm-round reply decoding allocation-free). On
// success rep.Model == m.
func decodeTrainReplyInto(payload []byte, m *ml.Model) (TrainReply, error) {
	if len(payload) < trainRepHeaderLen {
		return TrainReply{}, fmt.Errorf("train reply of %d bytes: %w", len(payload), ErrProtocol)
	}
	var rep TrainReply
	rep.Round = int(binary.LittleEndian.Uint32(payload[0:4]))
	rep.Loss = math.Float64frombits(binary.LittleEndian.Uint64(payload[4:12]))
	rep.Samples = int(binary.LittleEndian.Uint32(payload[12:16]))
	rep.Bits = ml.QuantBits(binary.LittleEndian.Uint32(payload[16:20]))
	rep.WireBytes = len(payload) - trainRepHeaderLen
	body := payload[trainRepHeaderLen:]
	switch rep.Bits {
	case 0:
		if err := m.UnmarshalBinaryReuse(body); err != nil {
			return TrainReply{}, fmt.Errorf("decode reply model: %w", err)
		}
	case ml.Quant8, ml.Quant16:
		if err := m.DequantizeInto(body); err != nil {
			return TrainReply{}, fmt.Errorf("decode quantized reply: %w", err)
		}
	default:
		return TrainReply{}, fmt.Errorf("reply bits %d: %w", rep.Bits, ErrProtocol)
	}
	rep.Model = m
	return rep, nil
}

// handshakeBody builds a handshake body: each field as a little-endian
// uint32, then the ProtoV2 version byte.
func handshakeBody(fields ...uint32) []byte {
	buf := make([]byte, 0, 4*len(fields)+1)
	for _, f := range fields {
		buf = binary.LittleEndian.AppendUint32(buf, f)
	}
	return append(buf, ProtoV2)
}

// checkHandshake verifies a handshake body of n uint32 fields: exactly
// 4n+1 bytes ending in the ProtoV2 version byte.
func checkHandshake(t MsgType, payload []byte, n int) error {
	if len(payload) != 4*n+1 {
		return fmt.Errorf("%v body of %d bytes: %w", t, len(payload), ErrProtocol)
	}
	if v := payload[4*n]; v != ProtoV2 {
		return fmt.Errorf("%v carrying protocol v%d, want v%d: %w", t, v, ProtoV2, ErrProtocol)
	}
	return nil
}

// encodeJoin builds the MsgJoin body: shard sample count + version byte.
func encodeJoin(samples uint32) []byte { return handshakeBody(samples) }

// decodeJoin parses the MsgJoin body.
func decodeJoin(payload []byte) (samples uint32, err error) {
	if err := checkHandshake(MsgJoin, payload, 1); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(payload), nil
}

// encodeWelcome builds the MsgWelcome body: assigned client id + version
// byte.
func encodeWelcome(id uint32) []byte { return handshakeBody(id) }

// decodeWelcome parses the MsgWelcome body.
func decodeWelcome(payload []byte) (id uint32, err error) {
	if err := checkHandshake(MsgWelcome, payload, 1); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(payload), nil
}

// encodeRejoin builds the MsgRejoin body: previously assigned id, sample
// count, version byte.
func encodeRejoin(id, samples uint32) []byte { return handshakeBody(id, samples) }

// decodeRejoin parses the MsgRejoin body.
func decodeRejoin(payload []byte) (id, samples uint32, err error) {
	if err := checkHandshake(MsgRejoin, payload, 2); err != nil {
		return 0, 0, err
	}
	return binary.LittleEndian.Uint32(payload[0:4]), binary.LittleEndian.Uint32(payload[4:8]), nil
}
