// Restloop runs the translation pipeline with the verification suite
// behind the REST wrapper: it starts an in-process batfishd, points the
// engine's verifier at it over HTTP, and runs the same §3 experiment —
// demonstrating that the loop is agnostic to where the verifiers live.
package main

import (
	"fmt"
	"log"
	"net/http/httptest"

	"repro"
	"repro/internal/batfish"
	"repro/internal/batfish/rest"
)

func main() {
	// Serve the suite exactly as cmd/batfishd would.
	srv := httptest.NewServer(rest.NewHandler())
	defer srv.Close()
	fmt.Printf("verification suite listening at %s\n", srv.URL)

	client, err := rest.Dial([]string{srv.URL})
	if err != nil {
		log.Fatal(err)
	}

	res, err := repro.Translate(repro.ExampleCiscoConfig(), repro.TranslateOptions{
		Seed:     1,
		Verifier: client, // every check is an HTTP round trip
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(repro.Summary("translation via REST verifier", res))

	// The same endpoints are callable directly, e.g. SearchRoutePolicies:
	// which routes carrying the provider community does the verified
	// to_provider policy still accept? (Exactly the our-networks routes —
	// the witness shows one.)
	result, err := client.Search(res.Configs["translation"], batfish.SearchQuery{
		Policy: "to_provider",
		Action: "permit",
		Constraints: batfish.RouteConstraints{
			HasCommunities: []string{"65001:100"},
			Protocol:       "any",
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("search: permits provider-tagged routes? found=%v witness=%q\n",
		result.Found, result.Witness)
}
