package lftj

// Reference is the brute-force oracle of this package's tests, for its
// external tests.
var Reference = reference
