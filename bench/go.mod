module goldfinger/bench

go 1.22

require goldfinger v0.0.0

replace goldfinger => ../
