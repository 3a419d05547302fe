package demo;

import org.junit.Test;
import org.junit.jupiter.api.DisplayName;

public class GenericTest {
    @Test public <T> void returnsSameInstance() {
        assertSame(value(), value());
    }

    @Test
    @DisplayName("say \"hi\" to C:\\temp {braces}")
    public void escapesQuotesAndBackslash() {
        assertEquals("{", open());
    }

    @Test
    @DisplayName("café ✓")
    void acceptsNonAsciiName() {
        assertTrue(ready());
    }

    private int value() {
        return 42; // not a test
    }
}
