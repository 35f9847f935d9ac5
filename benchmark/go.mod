module achilles/benchmark

go 1.22

require achilles v0.0.0

replace achilles => ../
