package coap

import (
	"tcplp/internal/ip6"
	"tcplp/internal/sim"
	"tcplp/internal/udp"
)

// DefaultPort is the CoAP UDP port.
const DefaultPort = 5683

// exchangeLifetime is how long the server remembers a confirmable
// request's message ID (RFC 7252 §4.8.2, EXCHANGE_LIFETIME with the
// default transmission parameters rounded to 250 s). A retransmission
// inside it is answered from the cached ACK; the same (source, message
// ID) after it is a new request.
const exchangeLifetime = 250 * sim.Second

// ServerStats counts server-side events.
type ServerStats struct {
	Requests   uint64 // deduplicated POSTs delivered to the handler
	Duplicates uint64 // retransmissions answered from the dedup cache
	NonPosts   uint64 // nonconfirmable requests (no ACK generated)
}

type dedupKey struct {
	src ip6.Addr
	mid uint16
}

type dedupEntry struct {
	ack     []byte
	expires sim.Time
}

// Server is the collector side: it accepts POSTs (whole or blockwise),
// hands payloads to OnPost, and piggybacks the response code on the ACK.
// It stands in for the paper's Californium cloud service, with the
// custom blockwise handling of §9.1 (a failed block never discards the
// rest of the batch — each block is an independent exchange).
type Server struct {
	eng  *sim.Engine
	sock *udp.Stack
	port uint16

	// OnPost handles a (deduplicated) request payload and returns the
	// response code. block is non-nil for blockwise transfers.
	OnPost func(src ip6.Addr, payload []byte, block *Block1) Code

	// dedup caches the ACK of every confirmable request seen within the
	// last exchangeLifetime, keyed by (source, message ID). dedupOrder
	// holds the same keys in arrival order: every entry lives exactly
	// exchangeLifetime, so arrival order is expiry order and gc pops
	// expired keys off the front without scanning the map.
	dedup      map[dedupKey]dedupEntry
	dedupOrder []dedupKey

	Stats ServerStats
}

// NewServer binds a server to port on sock.
func NewServer(eng *sim.Engine, sock *udp.Stack, port uint16) *Server {
	s := &Server{eng: eng, sock: sock, port: port, dedup: map[dedupKey]dedupEntry{}}
	sock.Bind(port, s.onDatagram)
	return s
}

func (s *Server) onDatagram(src ip6.Addr, srcPort uint16, payload []byte) {
	m, err := Decode(payload)
	if err != nil {
		return
	}
	if m.Code != CodePOST {
		return
	}
	s.gc()
	if m.Type == CON {
		key := dedupKey{src, m.MessageID}
		if e, dup := s.dedup[key]; dup {
			// Our ACK was lost; replay it without re-delivering.
			s.Stats.Duplicates++
			s.sock.Send(src, srcPort, s.port, e.ack)
			return
		}
		code := s.handle(src, m)
		ack := &Message{
			Type:      ACK,
			Code:      code,
			MessageID: m.MessageID,
			Token:     m.Token,
		}
		wire := ack.Encode()
		s.dedup[key] = dedupEntry{ack: wire, expires: s.eng.Now().Add(exchangeLifetime)}
		s.dedupOrder = append(s.dedupOrder, key)
		s.sock.Send(src, srcPort, s.port, wire)
		return
	}
	// Nonconfirmable: deliver, no acknowledgment.
	s.Stats.NonPosts++
	s.handle(src, m)
}

func (s *Server) handle(src ip6.Addr, m *Message) Code {
	s.Stats.Requests++
	var blk *Block1
	if v, ok := m.GetOption(OptBlock1); ok {
		if b, err := DecodeBlock1(v); err == nil {
			blk = &b
		}
	}
	if s.OnPost == nil {
		return CodeChanged
	}
	return s.OnPost(src, m.Payload, blk)
}

// gc drops the dedup entries whose exchange lifetime has passed, oldest
// first. A key is written only after gc has removed any earlier entry
// for it, so each key appears in dedupOrder once.
func (s *Server) gc() {
	now := s.eng.Now()
	for len(s.dedupOrder) > 0 {
		k := s.dedupOrder[0]
		if now < s.dedup[k].expires {
			return
		}
		delete(s.dedup, k)
		s.dedupOrder = s.dedupOrder[1:]
	}
}
