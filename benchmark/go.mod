module github.com/sparql-hsp/hsp/benchmark

go 1.24

require github.com/sparql-hsp/hsp v0.0.0

replace github.com/sparql-hsp/hsp => ../
