// Package regexc compiles a practical subset of regular-expression syntax
// into homogeneous 8-bit automata (the front end of the Impala toolchain,
// playing the role ANML/regex rule files play for APSim).
//
// Supported syntax: literals; escapes \xHH, \n \r \t \f \v \0 \\ and escaped
// metacharacters; perl classes \d \D \w \W \s \S; bracket classes with
// ranges and negation; '.'; grouping; alternation; quantifiers * + ?
// {n} {n,} {n,m}; a leading ^ anchor. '$' is not supported (spatial automata
// report match ends positionally; end-of-input anchoring is a host-side
// filter).
package regexc

import (
	"fmt"
	"strconv"
	"strings"

	"impala/internal/bitvec"
)

// node is a regex AST node.
type node interface{ isNode() }

type litNode struct{ set bitvec.ByteSet } // one symbol class
type catNode struct{ parts []node }
type altNode struct{ alts []node }
type starNode struct{ sub node }  // zero or more
type plusNode struct{ sub node }  // one or more
type questNode struct{ sub node } // zero or one

func (litNode) isNode()   {}
func (catNode) isNode()   {}
func (altNode) isNode()   {}
func (starNode) isNode()  {}
func (plusNode) isNode()  {}
func (questNode) isNode() {}

// maxRepeat bounds {n,m} expansion so pathological counts cannot explode
// the automaton.
const maxRepeat = 256

// parsed is the result of parsing one pattern.
type parsed struct {
	root     node
	anchored bool
}

type parser struct {
	src      string
	pos      int
	caseFold bool
}

// SyntaxError reports a pattern parse failure.
type SyntaxError struct {
	Pattern string
	Pos     int
	Msg     string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("regexc: %s at position %d in %q", e.Msg, e.Pos, e.Pattern)
}

func (p *parser) fail(msg string) error {
	return &SyntaxError{Pattern: p.src, Pos: p.pos, Msg: msg}
}

func parsePattern(src string) (*parsed, error) {
	p := &parser{src: src}
	// A leading (?i) makes the whole pattern case-insensitive.
	if strings.HasPrefix(src, "(?i)") {
		p.caseFold = true
		p.pos = 4
	}
	anchored := false
	if p.pos < len(src) && src[p.pos] == '^' {
		anchored = true
		p.pos++
	}
	root, err := p.parseAlt()
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.src) {
		return nil, p.fail("unexpected character")
	}
	if root == nil {
		return nil, p.fail("empty pattern")
	}
	return &parsed{root: root, anchored: anchored}, nil
}

func (p *parser) peek() (byte, bool) {
	if p.pos >= len(p.src) {
		return 0, false
	}
	return p.src[p.pos], true
}

func (p *parser) parseAlt() (node, error) {
	var alts []node
	for {
		cat, err := p.parseCat()
		if err != nil {
			return nil, err
		}
		alts = append(alts, cat)
		if c, ok := p.peek(); ok && c == '|' {
			p.pos++
			continue
		}
		break
	}
	if len(alts) == 1 {
		return alts[0], nil
	}
	return altNode{alts: alts}, nil
}

func (p *parser) parseCat() (node, error) {
	var parts []node
	for {
		c, ok := p.peek()
		if !ok || c == '|' || c == ')' {
			break
		}
		atom, err := p.parseAtom()
		if err != nil {
			return nil, err
		}
		atom, err = p.parseQuantifiers(atom)
		if err != nil {
			return nil, err
		}
		if atom != nil {
			parts = append(parts, atom)
		}
	}
	if len(parts) == 0 {
		return nil, p.fail("empty alternative")
	}
	if len(parts) == 1 {
		return parts[0], nil
	}
	return catNode{parts: parts}, nil
}

// parseQuantifiers applies the quantifiers that follow atom. A nil atom is
// the empty expression x{0} leaves behind: quantified again it stays empty.
func (p *parser) parseQuantifiers(atom node) (node, error) {
	for {
		c, ok := p.peek()
		if !ok {
			return atom, nil
		}
		var q node
		switch c {
		case '*':
			q = starNode{sub: atom}
		case '+':
			q = plusNode{sub: atom}
		case '?':
			q = questNode{sub: atom}
		case '{':
			rep, err := p.parseRepeat(atom)
			if err != nil {
				return nil, err
			}
			atom = rep
			continue
		default:
			return atom, nil
		}
		p.pos++
		if atom != nil {
			atom = q
		}
	}
}

// parseRepeat expands {n}, {n,}, {n,m} by duplication: n mandatory copies
// followed by (m-n) optional copies ({n,} uses a trailing star).
func (p *parser) parseRepeat(atom node) (node, error) {
	start := p.pos
	p.pos++ // '{'
	numEnd := p.pos
	for numEnd < len(p.src) && p.src[numEnd] != '}' {
		numEnd++
	}
	if numEnd >= len(p.src) {
		p.pos = start
		return nil, p.fail("unterminated {")
	}
	body := p.src[p.pos:numEnd]
	p.pos = numEnd + 1

	var lo, hi int
	var unbounded bool
	if comma := indexByte(body, ','); comma >= 0 {
		l, err := strconv.Atoi(body[:comma])
		if err != nil {
			return nil, p.fail("bad repeat count")
		}
		lo = l
		rest := body[comma+1:]
		if rest == "" {
			unbounded = true
		} else {
			h, err := strconv.Atoi(rest)
			if err != nil {
				return nil, p.fail("bad repeat count")
			}
			hi = h
		}
	} else {
		l, err := strconv.Atoi(body)
		if err != nil {
			return nil, p.fail("bad repeat count")
		}
		lo, hi = l, l
	}
	if !unbounded && hi < lo {
		return nil, p.fail("repeat bounds reversed")
	}
	if lo > maxRepeat || (!unbounded && hi > maxRepeat) {
		return nil, p.fail("repeat count too large")
	}
	if atom == nil {
		return nil, nil
	}
	var parts []node
	for i := 0; i < lo; i++ {
		parts = append(parts, atom)
	}
	if unbounded {
		parts = append(parts, starNode{sub: atom})
	} else {
		for i := lo; i < hi; i++ {
			parts = append(parts, questNode{sub: atom})
		}
	}
	if len(parts) == 0 {
		// {0} / {0,0}: matches empty — drop the atom entirely.
		return nil, nil
	}
	if len(parts) == 1 {
		return parts[0], nil
	}
	return catNode{parts: parts}, nil
}

func indexByte(s string, b byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == b {
			return i
		}
	}
	return -1
}

func (p *parser) parseAtom() (node, error) {
	c, _ := p.peek()
	switch c {
	case '(':
		p.pos++
		sub, err := p.parseAlt()
		if err != nil {
			return nil, err
		}
		if cc, ok := p.peek(); !ok || cc != ')' {
			return nil, p.fail("unterminated group")
		}
		p.pos++
		return sub, nil
	case '[':
		return p.parseClass()
	case '.':
		p.pos++
		return litNode{set: bitvec.ByteAll()}, nil
	case '\\':
		set, err := p.parseEscape()
		if err != nil {
			return nil, err
		}
		return litNode{set: p.fold(set)}, nil
	case '*', '+', '?', '{':
		return nil, p.fail("quantifier with nothing to repeat")
	case '^', '$':
		return nil, p.fail("anchors are only supported as a leading ^")
	default:
		p.pos++
		return litNode{set: p.fold(bitvec.ByteOf(c))}, nil
	}
}

// fold closes a symbol set under ASCII case when (?i) is active.
func (p *parser) fold(set bitvec.ByteSet) bitvec.ByteSet {
	if !p.caseFold {
		return set
	}
	out := set
	for _, v := range set.Values() {
		switch {
		case v >= 'a' && v <= 'z':
			out = out.Add(v &^ 0x20)
		case v >= 'A' && v <= 'Z':
			out = out.Add(v | 0x20)
		}
	}
	return out
}

func (p *parser) parseEscape() (bitvec.ByteSet, error) {
	p.pos++ // backslash
	c, ok := p.peek()
	if !ok {
		return bitvec.ByteSet{}, p.fail("trailing backslash")
	}
	p.pos++
	switch c {
	case 'n':
		return bitvec.ByteOf('\n'), nil
	case 'r':
		return bitvec.ByteOf('\r'), nil
	case 't':
		return bitvec.ByteOf('\t'), nil
	case 'f':
		return bitvec.ByteOf('\f'), nil
	case 'v':
		return bitvec.ByteOf('\v'), nil
	case '0':
		return bitvec.ByteOf(0), nil
	case 'd':
		return bitvec.ByteRange('0', '9'), nil
	case 'D':
		return bitvec.ByteRange('0', '9').Complement(), nil
	case 'w':
		return wordSet(), nil
	case 'W':
		return wordSet().Complement(), nil
	case 's':
		return spaceSet(), nil
	case 'S':
		return spaceSet().Complement(), nil
	case 'x':
		if p.pos+2 > len(p.src) {
			return bitvec.ByteSet{}, p.fail("truncated \\x escape")
		}
		v, err := strconv.ParseUint(p.src[p.pos:p.pos+2], 16, 8)
		if err != nil {
			return bitvec.ByteSet{}, p.fail("bad \\x escape")
		}
		p.pos += 2
		return bitvec.ByteOf(byte(v)), nil
	default:
		// Escaped metacharacter or literal punctuation.
		return bitvec.ByteOf(c), nil
	}
}

func wordSet() bitvec.ByteSet {
	return bitvec.ByteRange('a', 'z').
		Union(bitvec.ByteRange('A', 'Z')).
		Union(bitvec.ByteRange('0', '9')).
		Union(bitvec.ByteOf('_'))
}

func spaceSet() bitvec.ByteSet {
	return bitvec.ByteOf(' ').
		Union(bitvec.ByteOf('\t')).
		Union(bitvec.ByteOf('\n')).
		Union(bitvec.ByteOf('\r')).
		Union(bitvec.ByteOf('\f')).
		Union(bitvec.ByteOf('\v'))
}

func (p *parser) parseClass() (node, error) {
	p.pos++ // '['
	negate := false
	if c, ok := p.peek(); ok && c == '^' {
		negate = true
		p.pos++
	}
	var set bitvec.ByteSet
	first := true
	for {
		c, ok := p.peek()
		if !ok {
			return nil, p.fail("unterminated class")
		}
		if c == ']' && !first {
			p.pos++
			break
		}
		first = false
		var loSet bitvec.ByteSet
		singleLo := byte(0)
		isSingle := false
		if c == '\\' {
			s, err := p.parseEscape()
			if err != nil {
				return nil, err
			}
			loSet = s
			if s.Count() == 1 {
				singleLo, isSingle = s.Values()[0], true
			}
		} else {
			p.pos++
			loSet = bitvec.ByteOf(c)
			singleLo, isSingle = c, true
		}
		// Range?
		if nc, ok := p.peek(); ok && nc == '-' && isSingle {
			if p.pos+1 < len(p.src) && p.src[p.pos+1] != ']' {
				p.pos++ // '-'
				hc, _ := p.peek()
				var hiB byte
				if hc == '\\' {
					s, err := p.parseEscape()
					if err != nil {
						return nil, err
					}
					if s.Count() != 1 {
						return nil, p.fail("class range endpoint must be a single symbol")
					}
					hiB = s.Values()[0]
				} else {
					p.pos++
					hiB = hc
				}
				if hiB < singleLo {
					return nil, p.fail("class range reversed")
				}
				set = set.Union(bitvec.ByteRange(singleLo, hiB))
				continue
			}
		}
		set = set.Union(loSet)
	}
	if negate {
		set = set.Complement()
	} else {
		set = p.fold(set)
	}
	if set.Empty() {
		return nil, p.fail("empty class")
	}
	return litNode{set: set}, nil
}
