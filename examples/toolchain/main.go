// toolchain walks the complete offline/online flow the paper's system
// integration section describes: author an automaton, serialize it as ANML
// (the AP/ANMLZoo interchange format), compile it through V-TeSS, persist
// the device bitstream, reload the bitstream as a fresh machine (the
// memory-mapped configuration step), and scan a stream at the capsule level.
package main

import (
	"bytes"
	"fmt"
	"log"
	"strings"

	"impala"
	"impala/internal/anml"
	"impala/internal/arch"
	"impala/internal/regexc"
)

func main() {
	// 1. Author patterns and express them as an ANML document.
	nfa := regexc.MustCompile([]regexc.Rule{
		{Pattern: "ERROR", Code: 0},
		{Pattern: `WARN(ING)?`, Code: 1},
		{Pattern: `timeout after \d+ms`, Code: 2},
	})
	var doc bytes.Buffer
	if err := anml.Write(&doc, nfa, "log-rules"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ANML document: %d bytes, %d STEs\n", doc.Len(), nfa.NumStates())

	// 2. Compile the ANML through the full pipeline (as a host toolchain
	// loading third-party rule files would).
	m, err := impala.CompileANML(&doc, impala.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	md := m.Model()
	fmt.Printf("compiled: %d -> %d STEs, %d G4(s), bitstream %d bytes\n\n",
		md.OriginalStates, md.States, md.G4s, md.BitstreamBytes)

	// 3. Build a log stream with planted events.
	var stream strings.Builder
	for i := 0; i < 200; i++ {
		switch i % 9 {
		case 3:
			fmt.Fprintf(&stream, "ERROR line %d\n", i)
		case 5:
			fmt.Fprintf(&stream, "WARNING: disk %d\n", i)
		case 7:
			fmt.Fprintf(&stream, "timeout after %dms\n", i*3)
		default:
			fmt.Fprintf(&stream, "INFO ok %d\n", i)
		}
	}
	input := []byte(stream.String())

	// 4. Capsule-level scan.
	seq := m.Run(input)
	counts := map[int]int{}
	for _, mt := range seq {
		counts[mt.Pattern]++
	}
	fmt.Printf("capsule-level scan: %d bytes, %d matches (ERROR=%d WARN=%d timeout=%d)\n",
		len(input), len(seq), counts[0], counts[1], counts[2])

	// 5. Section 6 output-buffer budget check for this workload.
	sys := arch.DefaultSystem(arch.Design{Arch: arch.Impala, Bits: 4, Stride: 4})
	rate := float64(len(seq)) / (float64(len(input)) / 2) // reports per 16-bit cycle
	rep := sys.Analyze(rate)
	fmt.Printf("reporting rate %.4f reports/cycle vs OB budget %.4f -> overflow: %v\n",
		rate, rep.MaxReportsPerCycle, rep.OBOverflow)
}
