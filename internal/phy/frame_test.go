package phy

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"tcplp/internal/sim"
)

func TestFrameRoundTrip(t *testing.T) {
	f := &Frame{
		Type:       FrameData,
		Seq:        42,
		PAN:        0xface,
		Dst:        AddrFromID(7),
		Src:        AddrFromID(3),
		AckRequest: true,
		Payload:    []byte("hello 6lowpan"),
	}
	b := f.Encode()
	if len(b) != f.WireLen() {
		t.Fatalf("encoded %d bytes, WireLen says %d", len(b), f.WireLen())
	}
	g, err := DecodeFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	if g.Type != f.Type || g.Seq != f.Seq || g.PAN != f.PAN || g.Dst != f.Dst ||
		g.Src != f.Src || g.AckRequest != f.AckRequest || !bytes.Equal(g.Payload, f.Payload) {
		t.Fatalf("round trip mismatch: %+v vs %+v", g, f)
	}
}

func TestAckRoundTrip(t *testing.T) {
	a := AckFor(99, true)
	b := a.Encode()
	if len(b) != AckFrameLen {
		t.Fatalf("ack length %d, want %d", len(b), AckFrameLen)
	}
	g, err := DecodeFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	if g.Type != FrameAck || g.Seq != 99 || !g.FramePending {
		t.Fatalf("ack round trip: %+v", g)
	}
}

func TestCommandRoundTrip(t *testing.T) {
	f := &Frame{
		Type:       FrameCommand,
		Seq:        1,
		Dst:        AddrFromID(0),
		Src:        AddrFromID(5),
		Command:    DataRequest,
		AckRequest: true,
	}
	g, err := DecodeFrame(f.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if g.Type != FrameCommand || g.Command != DataRequest {
		t.Fatalf("command round trip: %+v", g)
	}
}

func TestFrameOverheadMatchesPaper(t *testing.T) {
	// Table 6: 23 B of IEEE 802.15.4 overhead per frame.
	if FrameOverhead != 23 {
		t.Fatalf("FrameOverhead = %d, want 23", FrameOverhead)
	}
	if MaxMACPayload != 104 {
		t.Fatalf("MaxMACPayload = %d, want 104", MaxMACPayload)
	}
}

func TestAirTimeMatchesPaper(t *testing.T) {
	// Table 5: a 127 B frame takes ≈4.1 ms on air.
	at := AirTime(MaxPHYPayload)
	if at < 4*sim.Millisecond || at > 4500*sim.Microsecond {
		t.Fatalf("127B airtime = %v, want ≈4.1-4.3ms", at)
	}
	// §6.4: node-occupancy for a full frame is ≈8.2 ms including SPI.
	total := at + LoadTime(MaxPHYPayload)
	if total < 8*sim.Millisecond || total > 8600*sim.Microsecond {
		t.Fatalf("127B total = %v, want ≈8.2-8.3ms", total)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := DecodeFrame([]byte{1, 2}); err != ErrFrameTooShort {
		t.Fatalf("short frame: %v", err)
	}
	if _, err := DecodeFrame(make([]byte, 200)); err != ErrFrameTooLong {
		t.Fatalf("long frame: %v", err)
	}
	// Data frame with short addressing modes is rejected.
	b := (&Frame{Type: FrameData, Dst: AddrFromID(1), Src: AddrFromID(2)}).Encode()
	b[1] &^= 0xc0 // clear src extended-addressing bits
	if _, err := DecodeFrame(b); err != ErrBadAddressing {
		t.Fatalf("bad addressing: %v", err)
	}
}

func TestOversizedFramePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("encoding an oversized frame should panic")
		}
	}()
	(&Frame{Type: FrameData, Payload: make([]byte, MaxMACPayload+1)}).Encode()
}

// Property: any payload up to the MAC maximum survives an encode/decode
// round trip with all flag combinations.
func TestQuickFrameRoundTrip(t *testing.T) {
	f := func(payload []byte, seq uint8, pan uint16, ar, fp bool, dst, src uint8) bool {
		if len(payload) > MaxMACPayload {
			payload = payload[:MaxMACPayload]
		}
		in := &Frame{
			Type: FrameData, Seq: seq, PAN: pan,
			Dst: AddrFromID(int(dst)), Src: AddrFromID(int(src)),
			AckRequest: ar, FramePending: fp, Payload: payload,
		}
		out, err := DecodeFrame(in.Encode())
		if err != nil {
			return false
		}
		return out.Seq == seq && out.PAN == pan && out.AckRequest == ar &&
			out.FramePending == fp && bytes.Equal(out.Payload, payload) &&
			out.Dst == in.Dst && out.Src == in.Src
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAddrFromID(t *testing.T) {
	for _, id := range []int{0, 1, 7, 1000} {
		if got := AddrFromID(id).ID(); got != id {
			t.Fatalf("AddrFromID(%d).ID() = %d", id, got)
		}
	}
	if !BroadcastAddr.IsBroadcast() {
		t.Fatal("broadcast address not recognized")
	}
	if AddrFromID(3).IsBroadcast() {
		t.Fatal("unicast address claimed broadcast")
	}
}

// FuzzDecodeFrame feeds arbitrary bytes to the receive-path decoder: it
// must never panic, the payload must alias no more than the input, and
// any frame that decodes must survive Encode and a second decode with
// every field intact.
func FuzzDecodeFrame(f *testing.F) {
	f.Add((&Frame{Type: FrameData, Seq: 42, PAN: 0xface, Dst: AddrFromID(7), Src: AddrFromID(3),
		AckRequest: true, Payload: []byte("hello 6lowpan")}).Encode())
	f.Add(AckFor(99, true).Encode())
	f.Add((&Frame{Type: FrameCommand, Seq: 1, Dst: AddrFromID(0), Src: AddrFromID(5),
		Command: DataRequest, AckRequest: true}).Encode())
	f.Fuzz(func(t *testing.T, b []byte) {
		var g Frame
		if DecodeFrameInto(&g, b) != nil {
			return
		}
		if len(g.Payload) > len(b) {
			t.Fatalf("payload of %d bytes from a %d-byte input", len(g.Payload), len(b))
		}
		var h Frame
		if err := DecodeFrameInto(&h, g.Encode()); err != nil {
			t.Fatalf("re-decode of %+v: %v", g, err)
		}
		if !bytes.Equal(g.Payload, h.Payload) {
			t.Fatalf("payload changed: %x vs %x", g.Payload, h.Payload)
		}
		g.Payload, h.Payload = nil, nil
		if !reflect.DeepEqual(g, h) {
			t.Fatalf("fields changed: %+v vs %+v", g, h)
		}
	})
}
