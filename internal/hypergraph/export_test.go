package hypergraph

// FindChainGAO is findChainGAO for the property tests of package
// hypergraph_test.
var FindChainGAO = findChainGAO
