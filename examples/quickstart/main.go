// Quickstart: compile a handful of regexes onto the Impala 4-stride design
// point, match a byte stream, and print the hardware model the
// configuration implies.
package main

import (
	"fmt"
	"log"

	"impala"
)

func main() {
	patterns := []string{
		"GET /",              // 0: HTTP GET
		"POST /",             // 1: HTTP POST
		`User-Agent: \w+`,    // 2: UA header
		`\d+\.\d+\.\d+\.\d+`, // 3: dotted quad
	}

	// The default configuration is the paper's best design point:
	// four 4-bit symbols per cycle (16 bits/cycle at 5 GHz = 80 Gbps).
	m, err := impala.CompileRegex(patterns, impala.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	input := []byte("GET /index.html HTTP/1.1\r\nHost: 10.0.42.7\r\nUser-Agent: curl\r\n\r\nPOST /login HTTP/1.1\r\n")
	for _, match := range m.Match(input) {
		fmt.Printf("pattern %d (%q) matched, ending at byte %d\n",
			match.Pattern, patterns[match.Pattern], match.End)
	}

	md := m.Model()
	fmt.Printf("\ndesign point : %d bits/cycle @ %.1f GHz = %.0f Gbps\n",
		md.BitsPerCycle, md.FreqGHz, md.ThroughputGbps)
	fmt.Printf("states       : %d original -> %d after V-TeSS\n", md.OriginalStates, md.States)
	fmt.Printf("hardware     : %d G4 unit(s), %.3f mm² @14nm, %d-byte bitstream\n",
		md.G4s, md.AreaMM2, md.BitstreamBytes)
	for _, st := range md.CompileStages {
		fmt.Printf("  stage %-16s %5d states %6d transitions\n", st.Name, st.States, st.Transitions)
	}
}
