//go:build !vettagged

// Package buildtag holds one symbol defined twice under opposite build
// constraints. The loader must type-check only the default build's
// file: loading both would be a duplicate declaration.
package buildtag

// Variant names the build that compiled this file.
const Variant = "default"
