module db2rdf/bench

go 1.22

require db2rdf v0.0.0

replace db2rdf => ../
