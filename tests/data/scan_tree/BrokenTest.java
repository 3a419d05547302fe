package demo;

import org.junit.Test;

class BrokenTest {
    @Test
    public void parsesFirst() {
        assertTrue(parse("a"));
    }

    @Test
    public void neverCloses() {
        if (ready) {
            run();
