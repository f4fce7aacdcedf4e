module diffaudit/bench

go 1.22

require diffaudit v0.0.0

replace diffaudit => ../
