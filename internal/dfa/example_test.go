package dfa_test

import (
	"fmt"

	"impala/internal/dfa"
	"impala/internal/regexc"
)

func ExampleBuild() {
	n := regexc.MustCompile([]regexc.Rule{{Pattern: "ab+c", Code: 7}})
	d, err := dfa.Build(n, dfa.Options{})
	if err != nil {
		panic(err)
	}
	for _, r := range d.Run([]byte("xxabbbc")) {
		fmt.Printf("pattern %d ends at byte %d\n", r.Code, r.BitPos/8)
	}
	fmt.Println("table:", d.TableBytes(), "bytes for", d.NumStates(), "states")
	// Output:
	// pattern 7 ends at byte 7
	// table: 2560 bytes for 5 states
}
