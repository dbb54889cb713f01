// The benchmark is a module of its own so that it builds from its own
// directory; the path prefix "impala/" is what lets it import the parent
// module's internal packages.
module impala/benchmark

go 1.22

require impala v0.0.0

replace impala => ../
