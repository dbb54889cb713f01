// nids is a network-intrusion-detection example: a Snort-like rule set is
// compiled onto Impala, a synthetic packet stream (with injected attacks)
// is scanned at 16 bits/cycle, and per-rule alert statistics are printed —
// the application class the paper's introduction motivates.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"strings"

	"impala"
)

type rule struct {
	pattern string
	name    string
}

func main() {
	rules := []rule{
		{`GET /etc/passwd`, "path traversal: /etc/passwd read"},
		{`\.\./\.\./`, "path traversal: dot-dot-slash"},
		{`cmd\.exe`, "windows shell invocation"},
		{`/bin/sh`, "unix shell invocation"},
		{`SELECT .+ FROM`, "SQL injection probe"},
		{`<script>`, "reflected XSS tag"},
		{`\x90\x90\x90\x90\x90\x90\x90\x90`, "NOP sled"},
		{`Authorization: Basic [A-Za-z0-9+/=]+`, "basic-auth credentials in clear"},
		{`User-Agent: (sqlmap|nikto|nmap)`, "scanner user agent"},
	}
	patterns := make([]string, len(rules))
	for i, r := range rules {
		patterns[i] = r.pattern
	}

	m, err := impala.CompileRegex(patterns, impala.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	md := m.Model()
	fmt.Printf("NIDS engine: %d rules, %d STEs, %.3f mm², line rate %.0f Gbps\n\n",
		len(rules), md.States, md.AreaMM2, md.ThroughputGbps)

	// Synthesize a packet stream: benign HTTP traffic with attacks mixed in.
	r := rand.New(rand.NewSource(42))
	var stream strings.Builder
	attacks := []string{
		"GET /etc/passwd HTTP/1.0\r\n",
		"GET /a/../../secret HTTP/1.1\r\n",
		"POST /q?x=SELECT name FROM users HTTP/1.1\r\n",
		"User-Agent: sqlmap\r\n",
		"payload " + strings.Repeat("\x90", 8) + " end\r\n",
	}
	for i := 0; i < 200; i++ {
		if r.Intn(10) == 0 {
			stream.WriteString(attacks[r.Intn(len(attacks))])
		} else {
			fmt.Fprintf(&stream, "GET /page%d HTTP/1.1\r\nHost: example.com\r\n\r\n", r.Intn(1000))
		}
	}

	input := []byte(stream.String())
	alerts := map[int]int{}
	for _, match := range m.Match(input) {
		alerts[match.Pattern]++
	}
	fmt.Printf("scanned %d bytes (%.1f µs at line rate)\n\n",
		len(input), float64(len(input)*8)/(md.ThroughputGbps*1000))
	for i, rl := range rules {
		if alerts[i] > 0 {
			fmt.Printf("ALERT x%-4d %s\n", alerts[i], rl.name)
		}
	}
}
