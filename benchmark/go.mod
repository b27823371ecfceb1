module hygraph/benchmark

go 1.22

// Only benchmark/layers (build tag "layers") imports the repository's
// packages; the e2e harness is stdlib plus the wire protocol.
require hygraph v0.0.0

replace hygraph => ../
