// Fixture: in a clock-injected tier even the Stopwatch wrapper is banned, by
// clock-confinement; time-arith-confined does not report it a second time.
double tick() {
    Stopwatch sw;  // expect(clock-confinement)
    return 0.0;
}
