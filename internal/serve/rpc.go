package serve

import (
	"net"
	"net/rpc"

	"repro/mining"
)

// RPCService is the net/rpc name the query service registers under —
// the same gob-codec transport family the distributed mining workers
// speak, so a deployment already running dist.ServeWorker processes can
// query the serving tier without a second protocol stack.
const RPCService = "DMServe"

// RPC is the net/rpc face of a Server's query path. Register it with
// Server.ServeRPC, or mount it on an existing *rpc.Server via
// rpc.RegisterName(RPCService, NewRPC(s)).
type RPC struct {
	s *Server
}

// NewRPC wraps a server for net/rpc registration.
func NewRPC(s *Server) *RPC { return &RPC{s: s} }

// RulesArgs mirrors RulesQuery for the wire.
type RulesArgs struct {
	K             int
	By            string
	MinConfidence float64
	Antecedent    []int
}

// RulesReply carries a rule-query answer and the view version it was
// computed from.
type RulesReply struct {
	Version uint64
	NumTx   int
	Rules   []mining.Rule
}

// SupportArgs is an itemset support lookup.
type SupportArgs struct {
	Items []int
}

// RecommendArgs is a per-antecedent recommendation request.
type RecommendArgs struct {
	Items []int
	K     int
}

// TopRules answers a rule query (see Server.TopRules).
func (r *RPC) TopRules(args RulesArgs, reply *RulesReply) error {
	v := r.s.View()
	rules, err := r.s.topRulesOn(v, RulesQuery{
		K:             args.K,
		By:            RankBy(args.By),
		MinConfidence: args.MinConfidence,
		Antecedent:    args.Antecedent,
	})
	if err != nil {
		return err
	}
	reply.Version, reply.NumTx, reply.Rules = v.version, v.numTx, rules
	return nil
}

// Support answers an itemset support lookup (see Server.ItemsetSupport).
func (r *RPC) Support(args SupportArgs, reply *SupportResult) error {
	res, err := r.s.ItemsetSupport(args.Items...)
	if err != nil {
		return err
	}
	*reply = res
	return nil
}

// Recommend answers a recommendation request (see Server.Recommend).
func (r *RPC) Recommend(args RecommendArgs, reply *RulesReply) error {
	v := r.s.View()
	rules, err := r.s.recommendOn(v, args.Items, args.K)
	if err != nil {
		return err
	}
	reply.Version, reply.NumTx, reply.Rules = v.version, v.numTx, rules
	return nil
}

// Stats reports the server counters over the wire.
func (r *RPC) Stats(_ struct{}, reply *Stats) error {
	*reply = r.s.Stats()
	return nil
}

// ServeRPC registers the query service as RPCService and serves gob-codec
// connections from l (one goroutine per connection) until the listener
// closes, whose error it returns — the same serving shape as
// dist.ServeWorker.
func (s *Server) ServeRPC(l net.Listener) error {
	srv := rpc.NewServer()
	if err := srv.RegisterName(RPCService, NewRPC(s)); err != nil {
		return err
	}
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		//lint:ignore invcheck/goroutines per-connection rpc goroutines run until the peer disconnects; their lifetime is bounded by closing the listener, the standard net/rpc serving shape
		go srv.ServeConn(conn)
	}
}
