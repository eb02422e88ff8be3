package llm

import "strings"

// A sentence is one of the modularizer's formulaic sentence shapes, read
// back by a scanner of literals and fields instead of a regexp. A field is
// a nonempty run of bytes in its class; a literal is one of its
// alternatives, tried in order. The scanner matches as Go's regexp does
// (leftmost-first): each field is greedy and gives bytes back, longest
// first, only until the rest of the sentence matches. No class holds a
// newline, so a match lies on one line; every class is ASCII or holds
// every byte of a multi-byte rune, so byte runs are rune runs. The tests
// keep each sentence's regexp and hold the scanner to it.
type sentence struct {
	parts  []part
	groups int // captured fields
}

type part struct {
	alts  []string   // a literal's alternatives; nil for a field
	class *byteClass // a field's class
	group bool       // the field is captured
	// exact: the field cannot give a byte back, because it ends the
	// sentence or no alternative of the literal after it starts with a
	// byte of its class.
	exact bool
}

type byteClass [256]bool

func classOf(in func(b byte) bool) *byteClass {
	var c byteClass
	for b := range c {
		c[b] = in(byte(b))
	}
	return &c
}

func isDigit(b byte) bool { return '0' <= b && b <= '9' }

// The regexp classes the sentences use: \w, \d, [\d.], [\d./], [\d: ],
// \S (not one of \t \n \f \r and space) and . (not a newline).
var (
	word     = classOf(func(b byte) bool { return isDigit(b) || 'a' <= b && b <= 'z' || 'A' <= b && b <= 'Z' || b == '_' })
	digits   = classOf(isDigit)
	dotted   = classOf(func(b byte) bool { return isDigit(b) || b == '.' })
	cidr     = classOf(func(b byte) bool { return isDigit(b) || b == '.' || b == '/' })
	commList = classOf(func(b byte) bool { return isDigit(b) || b == ':' || b == ' ' })
	nonSpace = classOf(func(b byte) bool { return !strings.ContainsRune("\t\n\f\r ", rune(b)) })
	nonLF    = classOf(func(b byte) bool { return b != '\n' })
)

func lit(alts ...string) part   { return part{alts: alts} }
func field(c *byteClass) part   { return part{class: c} }
func capture(c *byteClass) part { return part{class: c, group: true} }
func newSentence(parts ...part) sentence {
	s := sentence{parts: parts}
	for i := range parts {
		p := &parts[i]
		if p.class == nil {
			continue
		}
		if p.group {
			s.groups++
		}
		p.exact = true
		if i+1 < len(parts) {
			for _, a := range parts[i+1].alts {
				p.exact = p.exact && !p.class[a[0]]
			}
		}
	}
	return s
}

// The modularizer's sentences, as the regexps kept in the tests read them.
var (
	sGenerate = newSentence(lit("Generate the Cisco IOS configuration file for router "),
		capture(word), lit("."))
	sASRouter = newSentence(lit("Router "), capture(word), lit(" has AS number "),
		capture(digits), lit(" and router ID "), capture(dotted), lit("."))
	sIfc = newSentence(lit("Router "), field(word), lit(" has interface "),
		capture(nonSpace), lit(" with IP address "), capture(cidr), lit("."))
	sNeighbor = newSentence(lit("Router "), field(word), lit(" is connected to "),
		lit("router ", "external peer "), capture(nonSpace), lit(" at IP address "),
		capture(dotted), lit(" in AS "), capture(digits), lit("."))
	sNetworks = newSentence(lit("Router "), field(word), lit(" announces the networks: "),
		capture(nonLF), lit("."))
	sIngress = newSentence(lit("At the ingress from "), field(nonSpace), lit(" (neighbor "),
		capture(dotted), lit("), apply route-map "), capture(nonSpace),
		lit(" that adds the community "), capture(nonSpace))
	sEgress = newSentence(lit("At the egress to "), field(nonSpace), lit(" (neighbor "),
		capture(dotted), lit("), apply route-map "), capture(nonSpace),
		lit(" that denies any route carrying any of the communities "), capture(commList),
		lit(" and permits"))
)

// findAll returns what the regexp's FindAllStringSubmatch(text, -1)
// returns: the successive non-overlapping matches, each as the whole
// match followed by the captured fields.
func (s sentence) findAll(text string) [][]string {
	var out [][]string
	m := make([]string, s.groups+1)
	for pos := 0; ; {
		end, ok := s.next(text, pos, m)
		if !ok {
			return out
		}
		out = append(out, m)
		m = make([]string, s.groups+1)
		pos = end
	}
}

// find returns what the regexp's FindStringSubmatch(text) returns: the
// leftmost match, or nil.
func (s sentence) find(text string) []string {
	m := make([]string, s.groups+1)
	if _, ok := s.next(text, 0, m); ok {
		return m
	}
	return nil
}

// next finds the leftmost match starting at or after pos, fills m and
// returns where the match ends. A sentence starts with a one-alternative
// literal, so a match starts where that literal does.
func (s sentence) next(text string, pos int, m []string) (end int, ok bool) {
	lead := s.parts[0].alts[0]
	for {
		i := strings.Index(text[pos:], lead)
		if i < 0 {
			return 0, false
		}
		start := pos + i
		if end, ok = s.match(text, 1, start+len(lead), m, 1); ok {
			m[0] = text[start:end]
			return end, true
		}
		pos = start + 1
	}
}

// match matches parts[i:] at pos, storing captured fields from m[g] on,
// and returns where the match ends.
func (s sentence) match(text string, i, pos int, m []string, g int) (int, bool) {
	if i == len(s.parts) {
		return pos, true
	}
	p := &s.parts[i]
	if p.class == nil {
		for _, a := range p.alts {
			if strings.HasPrefix(text[pos:], a) {
				if end, ok := s.match(text, i+1, pos+len(a), m, g); ok {
					return end, true
				}
			}
		}
		return 0, false
	}
	r := pos
	for r < len(text) && p.class[text[r]] {
		r++
	}
	next := g
	if p.group {
		next++
	}
	low := pos + 1
	if p.exact {
		low = r
	}
	for k := r; k >= low && k > pos; k-- {
		if end, ok := s.match(text, i+1, k, m, next); ok {
			if p.group {
				m[g] = text[pos:k]
			}
			return end, true
		}
	}
	return 0, false
}
