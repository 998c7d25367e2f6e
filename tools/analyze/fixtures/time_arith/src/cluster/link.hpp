// Fixture: the cluster tier is clock-injected as well.
class Link {
    WallClock clock_;  // expect(clock-confinement)
};
