// The benchmark is a module of its own so that it builds from its own
// directory; the name keeps it inside the modelslicing/ tree, which is what
// lets it import the repository's internal packages.
module modelslicing/bench

go 1.24

require modelslicing v0.0.0

replace modelslicing => ../
