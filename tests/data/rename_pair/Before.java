import org.junit.Test;
import static org.junit.Assert.*;

public class CacheTest {
    @Test
    public void testGetReturnsStoredValue() {
        Cache cache = new Cache();
        cache.put("k", 1);
        assertEquals(1, cache.get("k"));
    }

    @Test
    public void evictOldest() {
        Cache cache = new Cache(2);
        cache.put("a", 1);
        cache.put("b", 2);
        cache.put("c", 3);
        assertNull(cache.get("a"));
    }

    @Test
    public void testSizeAfterClear() {
        Cache cache = new Cache();
        cache.putAll(java.util.Map.of("x", 7, "y", 8));
        cache.clear();
        assertEquals(0, cache.size());
    }

    @Test
    public void testUnchanged() {
        assertTrue(new Cache().isEmpty());
    }
}
