// Package importboundarytest seeds layering violations for the
// importboundary analyzer's golden test: it is linted under a virtual
// deterministic import path that is not in the policy's output set.
package importboundarytest

import (
	"fmt"
	"net/http" // finding: net/* import
	"net/url"  // finding: net/* import
	"os"       // finding: os import
)

// Bad reaches the host from a deterministic package.
func Bad(u string) error {
	parsed, err := url.Parse(u)
	if err != nil {
		return err
	}
	fmt.Println(parsed.Host)                          // finding: fmt.Println writes stdout
	fmt.Fprintf(os.Stderr, "host: %v\n", parsed.Host) // finding: os.Stderr
	_ = http.MethodGet
	return nil
}

// Legal formats into a value and lets the caller print.
func Legal(name string) string {
	return fmt.Sprintf("job %s", name)
}
