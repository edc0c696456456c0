module gpuvirt/bench

go 1.22

require gpuvirt v0.0.0

replace gpuvirt => ../
