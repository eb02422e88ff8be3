// Package modularizer implements Figure 3's Modularizer and Composer: it
// turns the machine-readable topology (the JSON dictionary) into a
// sequence of formulaic natural-language prompts — one per router — each
// carrying that router's local policy instructions, and composes the
// per-router outputs back into a snapshot folder for Batfish.
//
// The modularizer embodies "Give the Model Time to Think": it breaks the
// network-wide synthesis task into one simpler sub-prompt per router (§2).
package modularizer

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/batfish"
	"repro/internal/lightyear"
	"repro/internal/netgen"
	"repro/internal/topology"
)

// Task is one per-router synthesis prompt with its local spec.
type Task struct {
	Router string
	Prompt string
	// LocalSpec lists the requirements the semantic verifier will check
	// on this router's output.
	LocalSpec []lightyear.Requirement
}

// Tasks derives the per-router prompts for the no-transit use case: each
// prompt describes only that router's piece of the topology plus its local
// policy role — tagging at ingress and filtering at egress, at the hub on
// star topologies and at every ISP attachment point on other graphs.
func Tasks(t *topology.Topology) []Task {
	reqs := lightyear.SpecFor(t)
	// Bucket the spec by router in one pass. The spec grows with the
	// network's attachment count, so rescanning it once per router made
	// prompt rendering quadratic in network size; the buckets preserve
	// spec order, so each router's LocalSpec is unchanged.
	byRouter := make(map[string][]lightyear.Requirement, len(t.Routers))
	for _, r := range reqs {
		byRouter[r.Router] = append(byRouter[r.Router], r)
	}
	// Derive the policy-role inputs once; routerPrompt runs per router and
	// the scans are O(V+E).
	star := netgen.IsStar(t)
	var attaches []lightyear.Attachment
	var comms []string
	if !star {
		attaches = lightyear.ISPAttachments(t)
		// Every attachment's community tag renders in every other
		// attachment's egress sentence; format each once up front instead
		// of once per sentence it appears in.
		comms = make([]string, len(attaches))
		for i := range attaches {
			comms[i] = attaches[i].Community().String()
		}
	}
	var out []Task
	for i := range t.Routers {
		spec := &t.Routers[i]
		out = append(out, Task{
			Router:    spec.Name,
			Prompt:    routerPrompt(t, spec, star, attaches, comms),
			LocalSpec: byRouter[spec.Name],
		})
	}
	return out
}

// routerPrompt renders the formulaic per-router prompt. The sentences are
// machine-generated (the paper notes hand-written topology prose is
// error-prone, §4.1) and deliberately regular. They are appended to one
// builder, grown once to a bound on the prompt's length.
func routerPrompt(t *topology.Topology, spec *topology.RouterSpec,
	star bool, attaches []lightyear.Attachment, comms []string) string {
	var mine []int
	if !star {
		for i := range attaches {
			if attaches[i].Router == spec.Name {
				mine = append(mine, i)
			}
		}
	}
	hub := star && spec.Name == "R1"
	var spokes []int
	var tags []string
	if hub {
		spokes, tags = starSpokes(t)
	}
	var p prompt
	p.Grow(promptBound(spec, attaches, comms, mine, tags))
	p.add("Generate the Cisco IOS configuration file for router ", spec.Name, ".\n")
	p.add("Router ", spec.Name, " has AS number ")
	p.num(int64(spec.ASN))
	p.add(" and router ID ", spec.RouterID, ".\n")
	for _, ifc := range spec.Interfaces {
		p.add("Router ", spec.Name, " has interface ", ifc.Name, " with IP address ", ifc.Address, ".\n")
	}
	for _, nb := range spec.Neighbors {
		kind := "router"
		if nb.External {
			kind = "external peer"
		}
		p.add("Router ", spec.Name, " is connected to ", kind, " ", nb.PeerName, " at IP address ", nb.PeerIP, " in AS ")
		p.num(int64(nb.PeerAS))
		p.add(".\n")
	}
	p.add("Router ", spec.Name, " announces the networks: ")
	for i, n := range spec.Networks {
		if i > 0 {
			p.add(", ")
		}
		p.add(n)
	}
	p.add(".\n")
	if hub {
		p.starPolicy(spokes, tags)
	} else if !star {
		p.attachmentPolicy(attaches, comms, mine)
	}
	return p.String()
}

// A prompt is the builder the sentences are appended to, without fmt.
type prompt struct{ strings.Builder }

func (p *prompt) add(parts ...string) {
	for _, s := range parts {
		p.WriteString(s)
	}
}

func (p *prompt) num(n int64) {
	var d [20]byte
	p.Write(strconv.AppendInt(d[:0], n, 10))
}

// Each sentence's literal text is under sentenceText bytes and each
// number it holds under numText, so promptBound bounds a prompt's length
// by the lengths of the strings it holds.
const (
	sentenceText = 128
	numText      = 20
)

func promptBound(spec *topology.RouterSpec, attaches []lightyear.Attachment,
	comms []string, mine []int, tags []string) int {
	name := len(spec.Name) + sentenceText + numText
	n := 3*name + len(spec.RouterID)
	for _, ifc := range spec.Interfaces {
		n += name + len(ifc.Name) + len(ifc.Address)
	}
	for _, nb := range spec.Neighbors {
		n += name + len(nb.PeerName) + len(nb.PeerIP)
	}
	for _, s := range spec.Networks {
		n += len(s) + 2
	}
	all := 0 // every community tag, each with its separator
	for _, c := range comms {
		all += len(c) + 1
	}
	for _, i := range mine {
		a := &attaches[i]
		n += 2*(sentenceText+len(a.Peer.PeerName)+len(a.Peer.PeerIP)+len("FILTER_COMM_OUT_")+len(a.Peer.PeerName)) + all
	}
	all = 0
	for _, c := range tags {
		all += len(c) + 1
	}
	n += len(tags) * (2*(sentenceText+3*numText) + all)
	return n
}

// attachmentPolicy appends the local no-transit role of an ISP attachment
// point on a non-star topology: tag at the ISP ingress, filter every other
// attachment's tag at the ISP egress. mine indexes this router's
// attachments; a router without one has no policy role. comms is the
// pre-formatted community string of each attachment, positionally matched
// to attaches.
func (p *prompt) attachmentPolicy(attaches []lightyear.Attachment, comms []string, mine []int) {
	if len(mine) == 0 {
		return
	}
	p.add("Policy instructions:\n")
	for _, mi := range mine {
		a := &attaches[mi]
		p.add("At the ingress from ", a.Peer.PeerName, " (neighbor ", a.Peer.PeerIP,
			"), apply route-map ", a.IngressPolicy(), " that adds the community ", comms[mi],
			" to every incoming route.\n")
	}
	for _, mi := range mine {
		a := &attaches[mi]
		first := true
		for j := range attaches {
			o := &attaches[j]
			if o.Router == a.Router && o.Peer.PeerName == a.Peer.PeerName {
				continue
			}
			if first {
				p.add("At the egress to ", a.Peer.PeerName, " (neighbor ", a.Peer.PeerIP,
					"), apply route-map ", a.EgressPolicy(),
					" that denies any route carrying any of the communities ")
				first = false
			} else {
				p.add(" ")
			}
			p.add(comms[j])
		}
		if !first {
			p.add(" and permits all other routes.\n")
		}
	}
}

// starSpokes returns the star's spoke indexes, read from their names as
// the star's spec reads them, and each spoke's community tag. Each tag
// appears in every other spoke's egress sentence; it is formatted once
// instead of once per appearance.
func starSpokes(t *topology.Topology) ([]int, []string) {
	var spokes []int
	for i := range t.Routers {
		if t.Routers[i].Name != "R1" {
			spokes = append(spokes, lightyear.RouterIndex(t.Routers[i].Name))
		}
	}
	tags := make([]string, len(spokes))
	for k, i := range spokes {
		tags[k] = netgen.ISPCommunity(i).String()
	}
	return spokes, tags
}

// starPolicy appends R1's local no-transit role on the star: per-ISP
// ingress tagging and egress filtering, phrased with the paper's
// route-map names.
func (p *prompt) starPolicy(spokes []int, tags []string) {
	p.add("Policy instructions:\n")
	for k, i := range spokes {
		p.add("At the ingress from R")
		p.num(int64(i))
		p.add(" (neighbor ")
		p.num(int64(i))
		p.add(".0.0.2), apply route-map ADD_COMM_R")
		p.num(int64(i))
		p.add(" that adds the community ", tags[k], " to every incoming route.\n")
	}
	for _, i := range spokes {
		p.add("At the egress to R")
		p.num(int64(i))
		p.add(" (neighbor ")
		p.num(int64(i))
		p.add(".0.0.2), apply route-map FILTER_COMM_OUT_R")
		p.num(int64(i))
		p.add(" that denies any route carrying any of the communities ")
		first := true
		for j, n := range spokes {
			if n == i {
				continue
			}
			if !first {
				p.add(" ")
			}
			first = false
			p.add(tags[j])
		}
		p.add(" and permits all other routes.\n")
	}
}

// GlobalPrompt renders the single network-wide prompt used by the paper's
// failed "global policy" experiment (§4.1): the whole topology plus the
// global no-transit sentence, with no per-router roles.
func GlobalPrompt(t *topology.Topology) string {
	return netgen.Describe(t) +
		"Generate Cisco IOS configuration files for all routers.\n" +
		"Implement the no-transit policy: no two ISPs should be able to reach each other " +
		"through this network, but all ISPs should be able to reach the CUSTOMER and vice versa.\n"
}

// Compose assembles per-router configuration texts into a Batfish
// snapshot (Figure 3's Composer, which "puts back the pieces ... in a
// folder for Batfish").
func Compose(configs map[string]string) *batfish.Snapshot {
	s := batfish.NewSnapshot()
	for name, text := range configs {
		s.AddConfig(name, text)
	}
	return s
}

// WriteSnapshot writes per-router configs as <dir>/<router>.cfg.
func WriteSnapshot(dir string, configs map[string]string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("creating snapshot dir: %w", err)
	}
	for name, text := range configs {
		path := filepath.Join(dir, name+".cfg")
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	return nil
}
