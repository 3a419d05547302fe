package pkg.inner;

import org.junit.Test;

/* a nested file: { braces in comments } do not count */
class DeepTest {
    @Test(expected = IllegalStateException.class)
    public void failsWhenClosed() throws Exception {
        close();
        read();
    }

    public void testLegacyStyle() {
        assertNotNull(build());
    }
}
