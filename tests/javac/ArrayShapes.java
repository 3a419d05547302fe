package shapes;

import java.util.List;
import java.util.Map;
import java.util.function.Supplier;
import org.junit.Test;

/** Valid Java whose method declarations take unusual shapes. */
class ArrayShapes {
    // return types that end in an array after an array or a type argument
    int[][] arr2() { return new int[0][0]; }

    java.util.Map<String, Integer>[] maps() { return null; }

    @SuppressWarnings("unchecked")
    List<String>[] arrays() { return new List[1]; }

    <T> java.util.List<T>[] genericArray() { return null; }

    public static Map<String, int[]>[][] nested() { return null; }

    // array dimensions after the parameters (JLS 8.4, MethodDeclarator)
    int legacy()[] { return new int[0]; }

    String[] legacy2(int a)[] throws Exception { return null; }

    int[] ok() { return new int[] {1, 2}; }

    @Test
    public void testLambdaBlockAndSwitch() {
        Supplier<Integer> s = () -> { return 1; };
        int k = switch (s.get()) { case 1 -> { yield 2; } default -> 3; };
        String block = """
            { not a body }
            """;
        char brace = '{';
        Object anon = new Object() {
            @Override public String toString() { return "x"; }
        };
        class Local { int local() { return k; } }
    }

    @Test(timeout = 5) <T extends Comparable<? super T>> void testGeneric(List<T> xs) {
        java.util.Collections.<T>sort(xs);
    }

    int /* a comment */ commented /* here */ (int a) /* and */ { return a; }

    @Deprecated @SuppressWarnings({"a", "b"}) List<@Deprecated String>[] typeAnnotated() { return null; }

    enum Kind {
        ONE { int weight() { return 1; } };

        int weight() { return 0; }
    }

    record Point(int x, int y) {
        Point {
            if (x < 0) { throw new IllegalArgumentException(); }
        }

        int sum() { return x + y; }
    }
}
